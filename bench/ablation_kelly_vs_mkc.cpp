// Ablation A6: why MKC instead of classical discrete Kelly control.
//
// Paper §5.1: "the classical discrete Kelly control studied by [14] and
// others shows stability problems when the feedback delay becomes large.
// Hence, we employ a slightly modified discrete version of this framework
// called Max-min Kelly Control (MKC)", whose stability condition
// 0 < beta < 2 is delay-independent (Lemma 5).
//
// Part 1 sweeps the feedback delay D for both iterate maps at fixed gains:
// classical Kelly transitions from convergent to oscillatory/divergent as D
// grows, while MKC's tail error stays ~0 for every D.
// Part 2 runs classical Kelly as the live controller of a PELS flow — the
// AQM still protects the FGS prefix (utility stays high), only the rate gets
// rough: PELS's CC-independence holds even for a poorly chosen controller.
#include <cmath>
#include <iostream>

#include "analysis/convergence.h"
#include "analysis/stability.h"
#include "cc/kelly_classic.h"
#include "pels/scenario.h"
#include "util/table.h"

using namespace pels;

int main() {
  print_banner(std::cout,
               "A6 part 1: delay sweep of the iterate maps (tail error, % of r*)");
  // Classical Kelly: kappa = 2, w = 40 kb/s, price (r/C)^4 -> r* ~ 0.92 mb/s.
  // MKC: beta = 0.5, alpha = 20 kb/s, C = 2 mb/s -> r* = 2.04 mb/s.
  TablePrinter table({"feedback delay D", "classical Kelly", "MKC"});
  for (int delay : {1, 2, 4, 8, 16}) {
    const auto kelly =
        kelly_classic_trajectory(128e3, 2e6, 2.0, 40e3, 4000, delay);
    // Empirical equilibrium: r* solves r(r/C)^4 = w.
    const double r_star_kelly = std::pow(40e3 * std::pow(2e6, 4.0), 1.0 / 5.0);
    const double kelly_err =
        tail_oscillation(kelly, r_star_kelly, 0.1) / r_star_kelly * 100.0;

    const auto mkc = mkc_trajectory({128e3}, 2e6, 20e3, 0.5, 4000, delay);
    const double r_star_mkc = mkc_stationary_rate(2e6, 1, 20e3, 0.5);
    const double mkc_err =
        tail_oscillation(mkc.rates[0], r_star_mkc, 0.1) / r_star_mkc * 100.0;

    table.add_row({TablePrinter::fmt_int(delay),
                   TablePrinter::fmt(kelly_err, 2) + " %",
                   TablePrinter::fmt(mkc_err, 4) + " %"});
  }
  table.print(std::cout);
  std::cout << "\nExpected: classical Kelly's error explodes once D crosses its\n"
            << "linearized stability bound (g < 2 sin(pi/(2(2D+1)))), while MKC's\n"
            << "stays ~0 at every delay — the paper's reason for choosing MKC.\n";

  print_banner(std::cout, "A6 part 2: classical Kelly driving a live PELS flow (40 s)");
  ScenarioConfig cfg;
  cfg.pels_flows = 2;
  cfg.tcp_flows = 3;
  cfg.seed = 7;
  cfg.cc_kinds = {CcKind::kKellyClassic};  // kappa = 0.5, w = 40 kb/s
  DumbbellScenario s(cfg);
  const SimTime duration = 40 * kSecond;
  s.run_until(duration);
  s.finish();
  const double mean = s.source(0).rate_series().mean_in(20 * kSecond, duration);
  TablePrinter live({"metric", "value"});
  live.add_row({"mean rate (kb/s)", TablePrinter::fmt(mean / 1e3, 0)});
  live.add_row({"rate oscillation (% of mean)",
                TablePrinter::fmt(100.0 * s.source(0).rate_series().oscillation_in(
                                              20 * kSecond, duration) / mean, 1)});
  live.add_row({"mean FGS utility", TablePrinter::fmt(s.sink(0).mean_utility(), 3)});
  live.add_row({"yellow loss",
                TablePrinter::fmt(s.loss_series(Color::kYellow).mean_in(
                                      10 * kSecond, duration), 4)});
  live.print(std::cout);
  std::cout << "\nEven with this controller, the priority AQM keeps utility high —\n"
            << "PELS is congestion-control independent (§5).\n";
  return 0;
}
