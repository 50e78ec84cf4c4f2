// Ablation A2: congestion-control independence (paper §5: "PELS is
// independent of congestion control and can be utilized with any end-to-end
// or AQM scheme").
//
// Drive identical PELS scenarios with MKC, AIMD, and TFRC-lite and compare:
// the priority AQM must keep utility high under all three, while the
// controllers differ exactly where the paper says they do — AIMD's rate
// sawtooth vs MKC's flat stationary point.
#include <iostream>

#include "exp/sweep.h"
#include "pels/scenario.h"
#include "util/stats.h"
#include "util/table.h"

using namespace pels;

int main() {
  print_banner(std::cout,
               "Ablation A2: PELS under MKC vs AIMD vs TFRC-lite (2 flows, 60 s)");
  TablePrinter table({"controller", "mean rate (kb/s)", "rate osc (% of mean)",
                      "mean utility", "mean PSNR (dB)", "yellow loss"});
  std::vector<std::function<SweepOutput()>> tasks;
  for (const CcKind kind : {CcKind::kMkc, CcKind::kAimd, CcKind::kTfrc}) {
    tasks.push_back([kind] {
      ScenarioConfig cfg;
      cfg.pels_flows = 2;
      cfg.tcp_flows = 3;
      cfg.seed = 7;
      cfg.cc_kinds = {kind};
      DumbbellScenario s(cfg);
      const SimTime duration = 60 * kSecond;
      s.run_until(duration);
      s.finish();

      const double mean = s.source(0).rate_series().mean_in(20 * kSecond, duration);
      const double osc = s.source(0).rate_series().oscillation_in(20 * kSecond, duration);
      RunningStats psnr;
      for (const auto& q : s.sink(0).quality_for_frames(50, 550)) psnr.add(q.psnr_db);
      SweepOutput out;
      out.rows.push_back(
          {cc_kind_name(kind), TablePrinter::fmt(mean / 1e3, 0),
           TablePrinter::fmt(100.0 * osc / mean, 1),
           TablePrinter::fmt(s.sink(0).mean_utility(), 3), TablePrinter::fmt(psnr.mean(), 2),
           TablePrinter::fmt(s.loss_series(Color::kYellow).mean_in(20 * kSecond, duration), 4)});
      return out;
    });
  }
  SweepRunner runner;
  run_to_table(runner, std::move(tasks), table);
  table.print(std::cout);
  std::cout << "\nExpected: utility stays >0.9 for all controllers (the AQM, not the\n"
            << "controller, protects the FGS prefix); AIMD shows the large rate\n"
            << "oscillation that motivated MKC (§5); MKC holds the flattest rate.\n";
  return 0;
}
