// Figure 9 (paper §6.3-6.4):
//  left  — red packet delays under the staircase workload (two new flows per
//          50 s). Red rides the starved lowest-priority band, so its delay is
//          orders of magnitude above green/yellow. NOTE (EXPERIMENTS.md): at
//          equilibrium our red delay *decreases* as flows join, because red
//          service equals the MKC overshoot (~ N*alpha/beta * (1-p_thr)/p_thr,
//          growing with N) while the red band size is fixed; the paper's
//          monotone growth appears here only in join transients.
//  right — convergence and fairness of MKC: flow F1 starts at t = 0 with
//          128 kb/s, F2 joins at t = 10 s; both converge to C/N + alpha/beta
//          ~ 1.04 mb/s with no steady-state oscillation.
#include <iostream>

#include "analysis/convergence.h"
#include "cc/mkc.h"
#include "pels/scenario.h"
#include "util/table.h"

using namespace pels;

int main() {
  // ---------------------------------------------------------- left panel
  {
    ScenarioConfig cfg;
    cfg.pels_flows = 8;
    cfg.start_times = staircase_starts(8, 2, 50 * kSecond);
    cfg.tcp_flows = 3;
    cfg.seed = 7;
    DumbbellScenario s(cfg);
    const SimTime duration = 200 * kSecond;
    s.run_until(duration);

    print_banner(std::cout, "Figure 9 (left): red packet delays, +2 flows every 50 s");
    const auto& red = s.sink(0).delay_series(Color::kRed);
    const auto& yellow = s.sink(0).delay_series(Color::kYellow);
    TablePrinter table(
        {"t window (s)", "active flows", "red delay (ms)", "yellow delay (ms)", "ratio"});
    for (SimTime t0 = 0; t0 < duration; t0 += 25 * kSecond) {
      const SimTime t1 = t0 + 25 * kSecond;
      const int active = std::min(8, 2 * (1 + static_cast<int>(t0 / (50 * kSecond))));
      const double r = red.mean_in(t0, t1) * 1e3;
      const double y = yellow.mean_in(t0, t1) * 1e3;
      table.add_row({TablePrinter::fmt(to_seconds(t0), 0) + "-" +
                         TablePrinter::fmt(to_seconds(t1), 0),
                     TablePrinter::fmt_int(active), TablePrinter::fmt(r, 0),
                     TablePrinter::fmt(y, 1), TablePrinter::fmt(y > 0 ? r / y : 0.0, 1)});
    }
    table.print(std::cout);
    std::cout << "\nPaper: red delays reach hundreds of ms (up to ~400 ms), dwarfing\n"
              << "green/yellow; loss and delay in red have minimal impact on quality\n"
              << "(red packets exist to be lost).\n";
  }

  // --------------------------------------------------------- right panel
  {
    ScenarioConfig cfg;
    cfg.pels_flows = 2;
    cfg.start_times = {0, 10 * kSecond};
    cfg.tcp_flows = 1;
    cfg.seed = 7;
    const SimTime duration = 40 * kSecond;
    cfg.telemetry.enabled = true;
    cfg.telemetry.period = from_millis(100);
    cfg.telemetry.max_samples =
        static_cast<std::size_t>(duration / cfg.telemetry.period) + 16;
    DumbbellScenario s(cfg);
    s.run_until(duration);

    // Rates come from the telemetry sampler's flowN.rate_bps probes (see
    // DESIGN.md "Telemetry") instead of the sources' ad-hoc series. The
    // probe reads the controller directly, so before F2 joins at t = 10 s it
    // reports the idle controller's initial rate; mask that with "-" since
    // nothing is actually sending yet.
    const TimeSeriesSampler& tel = *s.telemetry_sampler();
    const TimeSeries f1_rate = tel.series("flow0.rate_bps");
    const TimeSeries f2_rate = tel.series("flow1.rate_bps");

    print_banner(std::cout,
                 "Figure 9 (right): MKC convergence/fairness (F2 joins at t = 10 s)");
    TablePrinter table({"t (s)", "F1 rate (kb/s)", "F2 rate (kb/s)"});
    for (SimTime t = kSecond / 2; t <= duration;
         t += (t < 16 * kSecond ? kSecond / 2 : 2 * kSecond)) {
      table.add_row({TablePrinter::fmt(to_seconds(t), 1),
                     TablePrinter::fmt(f1_rate.value_at(t) / 1e3, 0),
                     t < 10 * kSecond ? std::string("-")
                                      : TablePrinter::fmt(f2_rate.value_at(t) / 1e3, 0)});
    }
    table.print(std::cout);

    const double r_star = mkc_stationary_rate(s.video_capacity_bps(), 2, cfg.mkc);
    const double f1 = f1_rate.mean_in(30 * kSecond, duration);
    const double f2 = f2_rate.mean_in(30 * kSecond, duration);
    const double shares[] = {f1, f2};
    const SimTime settle = settling_time(f2_rate, r_star, 0.1 * r_star);
    std::cout << "\nstationary rate C/N + alpha/beta = "
              << TablePrinter::fmt(r_star / 1e3, 0) << " kb/s; measured F1 "
              << TablePrinter::fmt(f1 / 1e3, 0) << ", F2 " << TablePrinter::fmt(f2 / 1e3, 0)
              << " kb/s\nJain fairness index = "
              << TablePrinter::fmt(jain_fairness_index(shares), 4)
              << "; F2 within 10% of r* by t = "
              << (settle == kTimeNever ? std::string("never")
                                       : TablePrinter::fmt(to_seconds(settle), 1) + " s")
              << "\nPaper: flows converge to ~1 mb/s each, fair allocation ~13 s after\n"
              << "F2 joins, no oscillation in steady state.\n";
  }
  return 0;
}
