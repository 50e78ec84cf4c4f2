// Ablation A5: router feedback interval T (paper §5.2: "Selection of
// interval T depends on the desired responsiveness of the PELS framework to
// network conditions, but does not affect stability of the system as a
// whole").
//
// Sweep T and measure convergence time, steady-state mean and oscillation of
// the MKC rate, and utility. Expect: slower convergence and slightly coarser
// feedback for large T, but a stable equilibrium at r* for every T.
#include <iostream>

#include "analysis/convergence.h"
#include "cc/mkc.h"
#include "exp/sweep.h"
#include "pels/scenario.h"
#include "util/table.h"

using namespace pels;

int main() {
  print_banner(std::cout, "Ablation A5: feedback interval T sweep (2 flows, 40 s)");
  TablePrinter table({"T (ms)", "time to 10% of r* (s)", "mean rate (kb/s)",
                      "r* (kb/s)", "rate osc (%)", "mean utility"});
  std::vector<std::function<SweepOutput()>> tasks;
  for (double t_ms : {10.0, 30.0, 100.0, 300.0}) {
    tasks.push_back([t_ms] {
      ScenarioConfig cfg;
      cfg.pels_flows = 2;
      cfg.tcp_flows = 3;
      cfg.seed = 7;
      cfg.pels_queue.feedback_interval = from_millis(t_ms);
      // Keep the drop-based gamma window at ~240 ms across the sweep.
      cfg.pels_queue.fgs_loss_window_intervals =
          std::max(1, static_cast<int>(240.0 / t_ms));
      DumbbellScenario s(cfg);
      const SimTime duration = 40 * kSecond;
      s.run_until(duration);
      s.finish();

      const double r_star =
          mkc_stationary_rate(s.video_capacity_bps(), 2, cfg.mkc);
      const SimTime settle =
          settling_time(s.source(0).rate_series(), r_star, 0.1 * r_star);
      const double mean = s.source(0).rate_series().mean_in(20 * kSecond, duration);
      const double osc = s.source(0).rate_series().oscillation_in(20 * kSecond, duration);
      SweepOutput out;
      out.rows.push_back({TablePrinter::fmt(t_ms, 0),
                          settle == kTimeNever ? std::string("never")
                                               : TablePrinter::fmt(to_seconds(settle), 2),
                          TablePrinter::fmt(mean / 1e3, 0), TablePrinter::fmt(r_star / 1e3, 0),
                          TablePrinter::fmt(100.0 * osc / mean, 1),
                          TablePrinter::fmt(s.sink(0).mean_utility(), 3)});
      return out;
    });
  }
  SweepRunner runner;
  run_to_table(runner, std::move(tasks), table);
  table.print(std::cout);
  std::cout << "\nExpected: every T above the packet-quantization floor converges to the\n"
            << "same r* (the paper's fluid-model claim that T does not affect\n"
            << "stability), with larger T trading responsiveness for lower per-epoch\n"
            << "measurement noise. T = 10 ms is the deliberate degenerate case: an\n"
            << "interval then holds only ~5 packets, the rate estimate R carries\n"
            << "~±40% quantization noise, and the control loop walks randomly — the\n"
            << "fluid claim has a packet-level validity floor (see EXPERIMENTS.md).\n";
  return 0;
}
