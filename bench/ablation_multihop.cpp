// Ablation A7: multi-bottleneck behaviour (paper §5.2's multi-router rule).
//
// Parking-lot topology: a long flow crosses two PELS bottlenecks; cross
// flows load each hop independently. Each router overrides the in-band
// label only with larger loss, so the long flow reacts to the *most
// congested* resource — max-min allocation. This bench sweeps the load
// imbalance between the hops and reports which router governs the long flow
// and the resulting rates.
#include <iostream>

#include "analysis/stability.h"
#include "exp/sweep.h"
#include "pels/scenario.h"
#include "util/table.h"

using namespace pels;

int main() {
  print_banner(std::cout,
               "Ablation A7: parking-lot max-min (1 long flow, 2 PELS bottlenecks)");
  TablePrinter table({"cross flows hop1/hop2", "governing router", "long rate (kb/s)",
                      "hop2-peer rate (kb/s)", "hop1-peer rate (kb/s)",
                      "long-flow utility"});
  struct Case {
    int x1;
    int x2;
  };
  std::vector<std::function<SweepOutput()>> tasks;
  for (const Case c : {Case{1, 3}, Case{3, 1}, Case{2, 2}, Case{1, 7}}) {
    tasks.push_back([c] {
      // Flow 0 is the long flow, flow 1 the first hop-1 cross flow, flow
      // 1 + x1 the first hop-2 cross flow.
      ScenarioConfig cfg = parking_lot_config(1, c.x1, c.x2);
      cfg.seed = 11;
      DumbbellScenario s(cfg);
      const SimTime duration = 40 * kSecond;
      s.run_until(duration);
      s.finish();

      const double r_long = s.source(0).rate_series().mean_in(20 * kSecond, duration);
      const double r_x2 = s.source(1 + c.x1).rate_series().mean_in(20 * kSecond, duration);
      const double r_x1 = s.source(1).rate_series().mean_in(20 * kSecond, duration);
      SweepOutput out;
      out.rows.push_back({std::to_string(c.x1) + " / " + std::to_string(c.x2),
                          std::string("R").append(std::to_string(s.source(0).governing_router())),
                          TablePrinter::fmt(r_long / 1e3, 0), TablePrinter::fmt(r_x2 / 1e3, 0),
                          TablePrinter::fmt(r_x1 / 1e3, 0),
                          TablePrinter::fmt(s.sink(0).mean_utility(), 3)});
      return out;
    });
  }
  SweepRunner runner;
  run_to_table(runner, std::move(tasks), table);
  table.print(std::cout);
  std::cout << "\nExpected: the governing router follows the busier hop; the long flow\n"
            << "matches its peers on that hop (max-min), the other hop's cross flows\n"
            << "absorb the slack, and utility stays high across two priority AQMs.\n";
  return 0;
}
