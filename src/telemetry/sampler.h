// Scheduler-driven time-series sampler over a MetricsRegistry.
//
// Every `period` of simulated time the sampler snapshots all registered
// instruments into pre-sized flat buffers (sample-major layout) and records
// the timestamp. After reserve_runtime() a snapshot performs zero heap
// allocations: the buffers are reserved up front, the instrument set is
// frozen, and reads are plain loads / small callbacks. Once the reserved
// capacity is exhausted, further snapshots are counted in samples_dropped()
// but not stored, so a run that outlives its sizing degrades gracefully
// instead of allocating mid-run.
//
// Determinism contract (see DESIGN.md "Telemetry"): snapshots happen at
// scheduler-driven instants; equal-time ordering follows event insertion
// order. Create the sampler AFTER the agents whose state it reads (as
// DumbbellScenario does), and every snapshot observes post-update state for
// ticks that share a timestamp with control updates. Exports format values
// with fixed printf conversions, so two runs with identical event streams —
// e.g. the same scenario executed on different SweepRunner thread counts —
// produce byte-identical CSV/JSON.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/scheduler.h"
#include "telemetry/metrics.h"
#include "util/stats.h"
#include "util/time.h"

namespace pels {

/// Declarative telemetry switch for scenario configs: benches and examples
/// flip `enabled` and every instrumented layer is registered and sampled.
struct TelemetryConfig {
  bool enabled = false;
  SimTime period = from_millis(100);
  /// Snapshot capacity reserved up front; size as duration/period plus slack.
  std::size_t max_samples = 4096;

  /// Throws std::invalid_argument on a non-positive period or zero capacity
  /// (only checked when enabled).
  void validate() const;
};

class TimeSeriesSampler {
 public:
  /// Borrows `registry`; it must outlive the sampler and its instrument set
  /// must not change after reserve_runtime().
  TimeSeriesSampler(Scheduler& sched, const MetricsRegistry& registry, SimTime period);
  ~TimeSeriesSampler();

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Pre-sizes storage for `max_samples` snapshots of the current instrument
  /// set and freezes that set. Call once, after all registration.
  void reserve_runtime(std::size_t max_samples);

  /// Starts periodic sampling; the first snapshot fires one period from now.
  void start();
  void stop();

  /// Takes one snapshot immediately (also what the periodic tick does).
  void sample_now();

  std::size_t sample_count() const { return times_.size(); }
  /// Snapshots discarded after capacity ran out.
  std::uint64_t samples_dropped() const { return dropped_; }
  SimTime period() const { return period_; }

  SimTime time_at(std::size_t sample) const { return times_.at(sample); }
  double value_at(std::size_t probe, std::size_t sample) const;

  /// Copies one instrument's column out as a (time, value) series.
  TimeSeries series(std::size_t probe) const;
  /// Same, by instrument name; throws std::invalid_argument if unknown.
  TimeSeries series(const std::string& name) const;

  /// Wide CSV: header `t_seconds,<name>,...`, one row per snapshot.
  void write_csv(std::ostream& os) const;
  /// JSON object: period, sample count, drop count, and one array per
  /// instrument (times in seconds under "t_seconds").
  void write_json(std::ostream& os) const;

 private:
  Scheduler& sched_;
  const MetricsRegistry& registry_;
  SimTime period_;
  std::size_t probe_count_ = 0;  // frozen by reserve_runtime
  std::size_t capacity_ = 0;
  bool reserved_ = false;
  EventId pending_ = 0;
  std::vector<SimTime> times_;
  std::vector<double> values_;  // sample-major: [sample * probe_count_ + probe]
  std::uint64_t dropped_ = 0;

  void arm_next();
};

}  // namespace pels
