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
#include <cmath>
#include <iostream>
#include <string>

#include "analysis/stability.h"
#include "pels/multihop.h"
#include "util/cli.h"
#include "util/table.h"

using namespace pels;

namespace {

constexpr const char* kUsage =
    "usage: multihop_streaming [--hop1 N] [--hop2 N] [--seed N] [--seconds S]\n"
    "  --hop1/--hop2: cross flows on each hop (>= 1), --seconds: simulated time (> 0)\n";

/// Bad command line: the message, the usage line, exit status 2.
int usage_error(const std::string& what) {
  std::cerr << "multihop_streaming: " << what << "\n" << kUsage;
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (!args.positional().empty())
    return usage_error("unexpected argument '" + args.positional().front() + "'");
  for (const std::string& name : args.flag_names()) {
    if (name != "hop1" && name != "hop2" && name != "seed" && name != "seconds")
      return usage_error("unknown flag --" + name);
    if (args.get_string(name, "").empty()) return usage_error("--" + name + " needs a value");
  }
  const long long hop1 = args.get_int("hop1", 1);
  const long long hop2 = args.get_int("hop2", 3);
  const long long seed = args.get_int("seed", 11);
  const double seconds = args.get_double("seconds", 40.0);
  if (!args.parse_errors().empty()) return usage_error(args.parse_errors().front());
  // The report below reads cross flow 0 of each hop.
  if (hop1 < 1 || hop1 > INT_MAX || hop2 < 1 || hop2 > INT_MAX)
    return usage_error("--hop1 and --hop2 must be integers from 1 to " +
                       std::to_string(INT_MAX));
  if (seed < 0) return usage_error("--seed must be non-negative");
  if (!(std::isfinite(seconds) && seconds > 0.0))
    return usage_error("--seconds must be a positive number");

  ParkingLotConfig cfg;
  cfg.long_flows = 1;
  cfg.cross_flows_hop1 = static_cast<int>(hop1);
  cfg.cross_flows_hop2 = static_cast<int>(hop2);
  cfg.seed = static_cast<std::uint64_t>(seed);

  ParkingLotScenario s(cfg);
  const SimTime duration = from_seconds(seconds);
  s.run_until(duration);
  s.finish();

  std::cout << "Parking lot: 1 long flow + " << cfg.cross_flows_hop1
            << " cross flow(s) on hop 1 + " << cfg.cross_flows_hop2
            << " on hop 2, both bottlenecks 4 mb/s (PELS share 2 mb/s), " << seconds
            << " s\n";

  print_banner(std::cout, "Who governs the long flow?");
  TablePrinter gov({"router", "labels consumed by long flow", "queue FGS loss"});
  gov.add_row({"R1 (hop 1)",
               TablePrinter::fmt_int(static_cast<long long>(
                   s.long_flow(0).feedback_consumed(ParkingLotScenario::kRouter1))),
               TablePrinter::fmt(s.bottleneck1().current_fgs_loss(), 3)});
  gov.add_row({"R2 (hop 2)",
               TablePrinter::fmt_int(static_cast<long long>(
                   s.long_flow(0).feedback_consumed(ParkingLotScenario::kRouter2))),
               TablePrinter::fmt(s.bottleneck2().current_fgs_loss(), 3)});
  gov.print(std::cout);
  std::cout << "governing router (majority of consumed labels): R"
            << s.long_flow(0).governing_router() << "\n";

  print_banner(std::cout, "Max-min allocation");
  const SimTime tail = duration / 2;
  TablePrinter rates({"flow", "rate (kb/s)", "note"});
  rates.add_row({"long (both hops)",
                 TablePrinter::fmt(s.long_flow(0).rate_series().mean_in(tail, duration) / 1e3, 0),
                 "matches peers on the tight hop"});
  rates.add_row({"cross hop 1",
                 TablePrinter::fmt(
                     s.cross_flow_hop1(0).rate_series().mean_in(tail, duration) / 1e3, 0),
                 "soaks the slack the long flow leaves"});
  rates.add_row({"cross hop 2",
                 TablePrinter::fmt(
                     s.cross_flow_hop2(0).rate_series().mean_in(tail, duration) / 1e3, 0),
                 "peer of the long flow"});
  rates.print(std::cout);

  const int hop2_flows = 1 + cfg.cross_flows_hop2;
  std::cout << "\nstationary prediction on hop 2: C/N + alpha/beta = "
            << TablePrinter::fmt(mkc_stationary_rate(s.bottleneck2().pels_capacity_bps(),
                                                     hop2_flows, cfg.mkc.alpha_bps,
                                                     cfg.mkc.beta) / 1e3, 0)
            << " kb/s\nlong-flow FGS utility across two AQMs: "
            << TablePrinter::fmt(s.long_sink(0).mean_utility(), 3) << "\n";
  return 0;
}
