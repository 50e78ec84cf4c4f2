// Overhead of an observer (the telemetry sampler, the invariant monitor) on
// a deterministic single-threaded run, measured the same way by every bench.
//
// `run(treated)` performs one run with the observer off (false) or on
// (true) and returns a record with `data_packets`. Each rep is timed here in
// the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID), not wall time:
// a rep spends as much CPU either way, but on a shared machine its wall time
// also counts the stretches the thread sat descheduled, which swamp a
// budget of a few percent. The reps alternate in ABBA order (plain,
// treated, treated, plain, plain, ...), so drift and cache state hit both
// sides equally. The overhead compares the median runs' delivered-packet
// rates per CPU second; the noise floor is the plain runs' own CPU-time
// spread, (max - min) / median, so an overhead below it reads as noise.
// With one rep per side that spread is 0 by construction, hence kAbMinReps.
// A run whose noise floor is at or above the budget cannot tell a breach
// from noise, so overhead_clause() reports it unmeasurable instead of
// printing a figure that reads like a breach.
//
//   const auto ab = measure_ab_overhead(smoke ? kAbMinReps : 5,
//                                       [&](bool on) { return run_pipeline(d, on); });
//   if (ab.treated.data_packets != ab.plain.data_packets) ...  // it perturbed
//   std::cout << "(" << overhead_clause(ab, 0.02) << ")\n";
#pragma once

#include <time.h>

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>
#include <vector>

#include "util/table.h"

namespace pels {

inline constexpr int kAbMinReps = 3;

/// CPU time the calling thread has used, in ms.
inline double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) + 1e-6 * static_cast<double>(ts.tv_nsec);
}

template <typename Run>
struct AbOverhead {
  Run plain;    // median plain run by CPU time
  Run treated;  // median treated run by CPU time
  /// Delivered data packets per CPU second of the median runs.
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
  struct Timed {
    Run run;
    double cpu_ms;
  };
  const auto timed = [&run](bool treated) {
    const double t0 = thread_cpu_ms();
    Run r = run(treated);
    return Timed{std::move(r), thread_cpu_ms() - t0};
  };
  assert(reps >= kAbMinReps);
  std::vector<Timed> plain;
  std::vector<Timed> treated;
  for (int r = 0; r < reps; ++r) {
    const bool treated_first = r % 2 == 1;
    (treated_first ? treated : plain).push_back(timed(treated_first));
    (treated_first ? plain : treated).push_back(timed(!treated_first));
  }
  const auto by_cpu = [](const Timed& a, const Timed& b) { return a.cpu_ms < b.cpu_ms; };
  std::sort(plain.begin(), plain.end(), by_cpu);
  std::sort(treated.begin(), treated.end(), by_cpu);

  AbOverhead<Run> ab;
  const Timed& plain_med = plain[plain.size() / 2];
  const Timed& treated_med = treated[treated.size() / 2];
  ab.plain = plain_med.run;
  ab.treated = treated_med.run;
  ab.plain_pkts_per_sec = 1e3 * static_cast<double>(ab.plain.data_packets) / plain_med.cpu_ms;
  ab.treated_pkts_per_sec =
      1e3 * static_cast<double>(ab.treated.data_packets) / treated_med.cpu_ms;
  ab.overhead_frac_raw = 1.0 - ab.treated_pkts_per_sec / ab.plain_pkts_per_sec;
  ab.overhead_frac = std::max(0.0, ab.overhead_frac_raw);
  ab.noise_floor_frac = (plain.back().cpu_ms - plain.front().cpu_ms) / plain_med.cpu_ms;
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
