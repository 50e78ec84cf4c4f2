// Example: streaming across multiple PELS bottlenecks (parking lot).
//
// A "long" video flow crosses two PELS-enabled routers while cross traffic
// loads each hop independently. Demonstrates the paper's §5.2 multi-router
// machinery end to end: each router stamps its feedback label only when it
// is the more congested one, the long flow binds to the governing
// bottleneck (max-min), and the FGS prefix survives two priority AQMs in
// series.
//
// Run: ./build/examples/multihop_streaming [--hop1 N] [--hop2 N] [--seed N] [--seconds S]
#include <climits>
#include <iostream>
#include <string>

#include "analysis/stability.h"
#include "pels/scenario.h"
#include "util/cli.h"
#include "util/table.h"

using namespace pels;

namespace {

constexpr const char* kUsage =
    "usage: multihop_streaming [--hop1 N] [--hop2 N] [--seed N] [--seconds S]\n"
    "  --hop1/--hop2: cross flows on each hop (>= 1), --seed: >= 0,\n"
    "  --seconds: simulated time, 1 ns to one day (1e-9 to 86400)\n";

/// Bad command line: the message, the usage line, exit status 2.
int usage_error(const std::string& what) {
  std::cerr << "multihop_streaming: " << what << "\n" << kUsage;
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const StrictCliArgs args(argc, argv, {}, {"hop1", "hop2", "seed", "seconds"});
  // The report below reads cross flow 0 of each hop.
  const long long hop1 = args.get_int("hop1", 1, /*min=*/1);
  const long long hop2 = args.get_int("hop2", 3, /*min=*/1);
  const long long seed = args.get_int("seed", 11, /*min=*/0);
  const double seconds = args.get_double("seconds", 40.0, 1e-9, 86400.0);
  if (args.reject("multihop_streaming", kUsage)) return 2;
  // Both are >= 1 here, so this is hop1 + hop2 >= INT_MAX without overflow.
  if (hop1 >= INT_MAX - hop2)
    return usage_error("--hop1 + --hop2 must be below " + std::to_string(INT_MAX));

  // Flow 0 is the long flow, then hop1 cross flows on hop 1, then hop2 on hop 2.
  const int x1 = static_cast<int>(hop1);
  const int x2 = static_cast<int>(hop2);
  ScenarioConfig cfg = parking_lot_config(1, x1, x2);
  cfg.seed = static_cast<std::uint64_t>(seed);
  DumbbellScenario s(cfg);
  PelsSource& long_flow = s.source(0);
  PelsQueue& hop1_queue = *s.pels_queue(0);
  PelsQueue& hop2_queue = *s.pels_queue(1);
  const std::int32_t router1 = cfg.pels_queue.router_id;
  const std::int32_t router2 = router1 + 1;
  const SimTime duration = from_seconds(seconds);
  s.run_until(duration);
  s.finish();

  std::cout << "Parking lot: 1 long flow + " << x1 << " cross flow(s) on hop 1 + " << x2
            << " on hop 2, both bottlenecks 4 mb/s (PELS share 2 mb/s), " << seconds << " s\n";

  print_banner(std::cout, "Who governs the long flow?");
  TablePrinter gov({"router", "labels consumed by long flow", "queue FGS loss"});
  gov.add_row({"R1 (hop 1)",
               TablePrinter::fmt_int(static_cast<long long>(long_flow.feedback_consumed(router1))),
               TablePrinter::fmt(hop1_queue.current_fgs_loss(), 3)});
  gov.add_row({"R2 (hop 2)",
               TablePrinter::fmt_int(static_cast<long long>(long_flow.feedback_consumed(router2))),
               TablePrinter::fmt(hop2_queue.current_fgs_loss(), 3)});
  gov.print(std::cout);
  std::cout << "governing router (majority of consumed labels): R"
            << long_flow.governing_router() << "\n";

  print_banner(std::cout, "Max-min allocation");
  const SimTime tail = duration / 2;
  TablePrinter rates({"flow", "rate (kb/s)", "note"});
  rates.add_row({"long (both hops)",
                 TablePrinter::fmt(long_flow.rate_series().mean_in(tail, duration) / 1e3, 0),
                 "matches peers on the tight hop"});
  rates.add_row({"cross hop 1",
                 TablePrinter::fmt(s.source(1).rate_series().mean_in(tail, duration) / 1e3, 0),
                 "soaks the slack the long flow leaves"});
  rates.add_row({"cross hop 2",
                 TablePrinter::fmt(
                     s.source(1 + x1).rate_series().mean_in(tail, duration) / 1e3, 0),
                 "peer of the long flow"});
  rates.print(std::cout);

  const double r_star =
      mkc_stationary_rate(hop2_queue.pels_capacity_bps(), 1 + x2, cfg.mkc.alpha_bps, cfg.mkc.beta);
  std::cout << "\nstationary prediction on hop 2: C/N + alpha/beta = "
            << TablePrinter::fmt(r_star / 1e3, 0)
            << " kb/s\nlong-flow FGS utility across two AQMs: "
            << TablePrinter::fmt(s.sink(0).mean_utility(), 3) << "\n";
  return 0;
}
