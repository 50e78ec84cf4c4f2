// Simulation context: owns the scheduler and the master random seed, and
// hands decorrelated Rng streams to components. One Simulation corresponds to
// one experiment run.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/scheduler.h"
#include "util/cache_line.h"
#include "util/rng.h"
#include "util/time.h"

namespace pels {

/// On its own cache line: each domain of a partitioned topology has its own
/// Simulation, driven by its own thread.
class alignas(kCacheLineSize) Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1) : master_seed_(seed) {}

  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }

  SimTime now() const { return scheduler_.now(); }

  /// Schedules a callback `delay` after now.
  EventId after(SimTime delay, Scheduler::Callback fn) {
    return scheduler_.schedule_in(delay, std::move(fn));
  }

  /// Schedules a callback at absolute time `t`.
  EventId at(SimTime t, Scheduler::Callback fn) {
    return scheduler_.schedule_at(t, std::move(fn));
  }

  /// Derives a deterministic Rng stream for a component. Call with distinct
  /// stream ids; the same (seed, stream) always produces the same sequence.
  Rng make_rng(std::uint64_t stream) const { return Rng(master_seed_, stream); }

  void run_until(SimTime t_end) { scheduler_.run_until(t_end); }
  void run() { scheduler_.run(); }

 private:
  std::uint64_t master_seed_;
  Scheduler scheduler_;
};

}  // namespace pels
