// Ablation A3: WRR weight split between the PELS class and the Internet
// queue (paper §4.1: WRR provides "de-centralized administrative flexibility
// in selecting the weights"; §6.1 allocates 50% to TCP cross traffic).
//
// Sweep the PELS share and verify both directions of isolation: the video
// class converges to its share (MKC equilibrium scales with C_pels) and TCP
// keeps the rest, regardless of how hard either side pushes.
#include <iostream>

#include "cc/mkc.h"
#include "exp/sweep.h"
#include "pels/scenario.h"
#include "util/table.h"

using namespace pels;

int main() {
  print_banner(std::cout, "Ablation A3: WRR share sweep (4 video flows + 3 TCP, 40 s)");
  TablePrinter table({"PELS share", "C_pels (mb/s)", "video rate sum (mb/s)",
                      "r* prediction (mb/s)", "TCP goodput (mb/s)", "TCP share of rest"});
  std::vector<std::function<SweepOutput()>> tasks;
  for (double share : {0.25, 0.50, 0.75}) {
    tasks.push_back([share] {
      ScenarioConfig cfg;
      cfg.pels_flows = 4;
      cfg.tcp_flows = 3;
      cfg.seed = 7;
      cfg.pels_queue.pels_weight = share;
      cfg.pels_queue.internet_weight = 1.0 - share;
      DumbbellScenario s(cfg);
      const SimTime duration = 40 * kSecond;
      s.run_until(duration);

      double video_sum = 0.0;
      for (int i = 0; i < 4; ++i)
        video_sum += s.source(i).rate_series().mean_in(20 * kSecond, duration);
      double tcp_sum = 0.0;
      for (int i = 0; i < 3; ++i) tcp_sum += s.tcp_source(i).goodput_bps(s.sim().now());
      const double c_pels = s.video_capacity_bps();
      const double c_tcp = cfg.bottleneck_bps - c_pels;
      const double r_star = 4.0 * mkc_stationary_rate(c_pels, 4, cfg.mkc);
      SweepOutput out;
      out.rows.push_back({TablePrinter::fmt(share, 2), TablePrinter::fmt(c_pels / 1e6, 2),
                          TablePrinter::fmt(video_sum / 1e6, 2),
                          TablePrinter::fmt(r_star / 1e6, 2), TablePrinter::fmt(tcp_sum / 1e6, 2),
                          TablePrinter::fmt(tcp_sum / c_tcp, 2)});
      return out;
    });
  }
  SweepRunner runner;
  run_to_table(runner, std::move(tasks), table);
  table.print(std::cout);
  std::cout << "\nExpected: the video aggregate tracks C_pels + N*alpha/beta for every\n"
            << "split, and TCP goodput tracks its own share — the classes cannot\n"
            << "starve each other (the paper's §6.1 isolation claim).\n";
  return 0;
}
