// Wall-clock overhead of an observer (the telemetry sampler, the invariant
// monitor) on a deterministic run, measured the same way by every bench.
//
// `run(treated)` performs one run with the observer off (false) or on
// (true) and returns a record with `wall_ms` and `data_packets`. The reps
// alternate in ABBA order (plain, treated, treated, plain, plain, ...), so
// clock drift and cache state hit both sides equally. The overhead compares
// the median runs' delivered-packet rates; the noise floor is the plain
// runs' own wall-clock spread, (max - min) / median, so an overhead below it
// reads as noise. With one rep per side that spread is 0 by construction,
// hence kAbMinReps. A run whose noise floor is at or above the budget cannot
// tell a breach from noise, so overhead_clause() reports it unmeasurable
// instead of printing a figure that reads like a breach.
//
//   const auto ab = measure_ab_overhead(smoke ? kAbMinReps : 5,
//                                       [&](bool on) { return run_pipeline(d, on); });
//   if (ab.treated.data_packets != ab.plain.data_packets) ...  // it perturbed
//   std::cout << "(" << overhead_clause(ab, 0.02) << ")\n";
#pragma once

#include <algorithm>
#include <cassert>
#include <string>
#include <vector>

#include "util/table.h"

namespace pels {

inline constexpr int kAbMinReps = 3;

template <typename Run>
struct AbOverhead {
  Run plain;    // median plain run by wall time
  Run treated;  // median treated run by wall time
  double plain_pkts_per_sec = 0.0;
  double treated_pkts_per_sec = 0.0;
  /// 1 - treated / plain rate. Negative means the treated median won the
  /// coin toss against run-to-run noise; overhead_frac clamps it at 0.
  double overhead_frac_raw = 0.0;
  double overhead_frac = 0.0;
  double noise_floor_frac = 0.0;
};

template <typename RunFn>
auto measure_ab_overhead(int reps, RunFn run) -> AbOverhead<decltype(run(false))> {
  using Run = decltype(run(false));
  assert(reps >= kAbMinReps);
  std::vector<Run> plain;
  std::vector<Run> treated;
  for (int r = 0; r < reps; ++r) {
    const bool treated_first = r % 2 == 1;
    (treated_first ? treated : plain).push_back(run(treated_first));
    (treated_first ? plain : treated).push_back(run(!treated_first));
  }
  const auto by_wall = [](const Run& a, const Run& b) { return a.wall_ms < b.wall_ms; };
  std::sort(plain.begin(), plain.end(), by_wall);
  std::sort(treated.begin(), treated.end(), by_wall);

  AbOverhead<Run> ab;
  ab.plain = plain[plain.size() / 2];
  ab.treated = treated[treated.size() / 2];
  ab.plain_pkts_per_sec = 1e3 * static_cast<double>(ab.plain.data_packets) / ab.plain.wall_ms;
  ab.treated_pkts_per_sec =
      1e3 * static_cast<double>(ab.treated.data_packets) / ab.treated.wall_ms;
  ab.overhead_frac_raw = 1.0 - ab.treated_pkts_per_sec / ab.plain_pkts_per_sec;
  ab.overhead_frac = std::max(0.0, ab.overhead_frac_raw);
  ab.noise_floor_frac = (plain.back().wall_ms - plain.front().wall_ms) / ab.plain.wall_ms;
  return ab;
}

/// The overhead clause of a report line: "overhead X%, budget B%, noise
/// floor N%", or "overhead unmeasurable (noise floor N% ≥ budget B%)" when
/// the run's own spread is at least the budget.
template <typename Run>
std::string overhead_clause(const AbOverhead<Run>& ab, double budget_frac) {
  const std::string budget = TablePrinter::fmt(100.0 * budget_frac, 0) + "%";
  const std::string floor = TablePrinter::fmt(100.0 * ab.noise_floor_frac, 2) + "%";
  if (ab.noise_floor_frac >= budget_frac) {
    return "overhead unmeasurable (noise floor " + floor + " ≥ budget " + budget + ")";
  }
  return "overhead " + TablePrinter::fmt(100.0 * ab.overhead_frac, 2) + "%, budget " + budget +
         ", noise floor " + floor;
}

}  // namespace pels
