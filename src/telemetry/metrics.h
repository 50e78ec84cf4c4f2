// Metrics registry: named counters/gauges/probes registered once at setup.
//
// Three kinds of instrument, all exported by the TimeSeriesSampler
// (src/telemetry/sampler.h) in registration order:
//
//   * Counter — a monotonically increasing std::uint64_t slot owned by the
//     registry. Hot paths hold a Counter* and call inc(): one add on a plain
//     integer, no branching, no indirection beyond the pointer the component
//     already checked once at setup (a null pointer means telemetry is off).
//   * Gauge — a double slot, same ownership and cost model, for values that
//     move both ways (current loss estimate, rate, occupancy).
//   * Probe — a pull callback read only at sample time. The right choice for
//     state the component already keeps (queue occupancy, link utilization,
//     cumulative ColorCounters): zero hot-path cost, no double bookkeeping.
//
// Lifecycle contract: register everything during scenario setup, then freeze
// the set by calling TimeSeriesSampler::reserve_runtime. Slots live in deques
// so registration never invalidates previously handed-out pointers, and
// nothing on the read path allocates (probe callbacks must not allocate
// either; every probe in this repo reads plain members). Registration and
// index_of are O(1) through a hashed name index, so a scenario's set-up is
// linear in its instrument count.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace pels {

/// Monotonic event counter slot. Plain uint64_t add; never reset mid-run.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous-value slot (rates, loss estimates, occupancies).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Pull callback; must be allocation-free and side-effect-free (it runs on
  /// every sampler tick and inside export verification).
  using ProbeFn = std::function<double()>;

  /// Registers a counter slot. The returned reference is stable for the
  /// registry's lifetime. Throws std::invalid_argument on a duplicate name.
  Counter& counter(const std::string& name);

  /// Registers a gauge slot (same stability/duplicate contract as counter).
  Gauge& gauge(const std::string& name);

  /// Registers a pull probe reading component state at sample time.
  void add_probe(const std::string& name, ProbeFn read);

  /// Number of registered instruments (counters + gauges + probes).
  std::size_t size() const { return entries_.size(); }
  const std::string& name(std::size_t i) const { return entries_.at(i).name; }

  /// Current value of instrument `i` (counters are widened to double).
  /// Allocation-free: the sampler calls this once per instrument per tick.
  double read(std::size_t i) const;

  /// Index of the instrument named `name`, or -1 if absent. O(1).
  std::ptrdiff_t index_of(std::string_view name) const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kProbe };

  struct Entry {
    std::string name;
    Kind kind;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    ProbeFn probe;
  };

  // One slot of the name index: the low 32 bits of the name's hash and the
  // entry's index + 1 (0 = empty). The names themselves stay in entries_.
  struct IndexSlot {
    std::uint32_t hash = 0;
    std::uint32_t entry = 0;
  };

  /// Throws std::invalid_argument on an empty or registered name; returns
  /// the name's hash for add_entry.
  std::uint32_t check_new_name(const std::string& name) const;
  /// Appends `e` and indexes it under `hash` (from check_new_name).
  void add_entry(Entry e, std::uint32_t hash);
  std::ptrdiff_t find(std::string_view name, std::uint32_t hash) const;
  void place(IndexSlot slot);

  // Deques: slot addresses survive later registrations.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::vector<Entry> entries_;
  // Open addressing with linear probing, a power-of-two size at most half
  // full, so every probe run ends at an empty slot.
  std::vector<IndexSlot> index_;
};

}  // namespace pels
