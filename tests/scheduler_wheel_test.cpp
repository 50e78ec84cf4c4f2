// Two-tier scheduler determinism tests (see DESIGN.md "Event model"): the
// timing wheel must be an invisible optimization — execution order, cancel
// semantics, and whole-scenario metrics are byte-identical to the heap-only
// scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "pels/scenario.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "util/time.h"

namespace pels {
namespace {

TEST(SchedulerWheelTest, TieOrderIsInsertionOrderAcrossTiers) {
  // Three events at the same timestamp, alternating tiers: A lands in the
  // wheel, B (wheel disabled) on the heap, C back in the wheel. The global
  // (t, seq) merge must run them in insertion order regardless of tier.
  Scheduler sched;
  std::vector<int> order;
  const SimTime t = from_millis(1);
  sched.schedule_at(t, [&order] { order.push_back(0); });
  sched.set_wheel_enabled(false);
  sched.schedule_at(t, [&order] { order.push_back(1); });
  sched.set_wheel_enabled(true);
  sched.schedule_at(t, [&order] { order.push_back(2); });

  const Scheduler::Stats before = sched.stats();
  EXPECT_EQ(before.wheel_entries, 2u);
  EXPECT_EQ(before.heap_size, 1u);

  sched.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SchedulerWheelTest, InterleavedTiersDrainInGlobalTimeOrder) {
  // Deterministic pseudo-random horizons spanning every tier: sub-millisecond
  // (level 0), seconds (level 1), minutes (level 2), and hours (heap).
  // Execution must be sorted by time with FIFO among equal times.
  Scheduler sched;
  std::vector<std::pair<SimTime, int>> executed;
  std::uint64_t lcg = 12345;
  std::vector<SimTime> times;
  for (int i = 0; i < 5000; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t r = lcg >> 33;
    SimTime t;
    switch (i & 3) {
      case 0: t = static_cast<SimTime>(r % (30 * kMillisecond)); break;
      case 1: t = static_cast<SimTime>(r % (8 * kSecond)); break;
      case 2: t = static_cast<SimTime>(r % (30 * 60 * kSecond)); break;
      default: t = static_cast<SimTime>(r % (2 * 3600 * kSecond)); break;
    }
    times.push_back(t);
    sched.schedule_at(t, [&executed, &sched, t, i] { executed.push_back({t, i}); });
    // Redundant with the callback's own check, but catches a now() that
    // regresses between events too.
    (void)sched;
  }

  sched.run();
  ASSERT_EQ(executed.size(), times.size());
  for (std::size_t i = 1; i < executed.size(); ++i) {
    ASSERT_LE(executed[i - 1].first, executed[i].first) << "at " << i;
    if (executed[i - 1].first == executed[i].first) {
      ASSERT_LT(executed[i - 1].second, executed[i].second)
          << "tie at t=" << executed[i].first << " broke FIFO";
    }
  }
  const Scheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.executed, times.size());
  EXPECT_GT(stats.bucket_loads, 0u);
  EXPECT_GT(stats.cascades, 0u);
}

TEST(SchedulerWheelTest, CancelAndRescheduleAcrossTierBoundaries) {
  Scheduler sched;
  int fired = 0;

  // Wheel resident cancelled before its bucket drains.
  const EventId near = sched.schedule_at(from_millis(5), [&fired] { ++fired; });
  // Heap resident (beyond the wheel horizon) cancelled as well.
  const EventId far = sched.schedule_at(2 * 3600 * kSecond, [&fired] { ++fired; });
  EXPECT_TRUE(sched.cancel(near));
  EXPECT_TRUE(sched.cancel(far));
  EXPECT_FALSE(sched.cancel(near)) << "double cancel must be a no-op";

  // The classic timer pattern: cancel-and-re-arm hopping between tiers.
  // Each re-arm lands in a different tier than the last.
  EventId timer = sched.schedule_at(from_millis(1), [&fired] { ++fired; });
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(sched.cancel(timer));
    const SimTime t = (i % 2 == 0) ? (3 * 3600 * kSecond + i)  // heap tier
                                   : from_millis(1 + i);       // wheel tier
    timer = sched.schedule_at(t, [&fired] { ++fired; });
  }

  sched.run();
  // Only the last re-arm survives.
  EXPECT_EQ(fired, 1);
  const Scheduler::Stats stats = sched.stats();
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.cancelled, 52u);
  EXPECT_EQ(stats.wheel_entries, 0u);
}

TEST(SchedulerWheelTest, OverflowCascadesPreserveOrder) {
  // One event per tier, in reverse scheduling order; later the level-2 and
  // level-1 residents must cascade down as the frontier reaches them, and
  // everything still runs in time order.
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(20 * 60 * kSecond, [&order] { order.push_back(3); });  // level 2
  sched.schedule_at(4 * kSecond, [&order] { order.push_back(2); });        // level 1
  sched.schedule_at(from_millis(10), [&order] { order.push_back(1); });    // level 0
  sched.schedule_at(from_micros(50), [&order] { order.push_back(0); });    // level 0
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  const Scheduler::Stats stats = sched.stats();
  EXPECT_GE(stats.cascades, 2u) << "level-1 and level-2 residents must cascade";
  EXPECT_EQ(stats.executed, 4u);
}

TEST(SchedulerWheelTest, PeekNextTimeMergesBothTiers) {
  Scheduler sched;
  const EventId near = sched.schedule_at(from_millis(2), [] {});
  sched.schedule_at(2 * 3600 * kSecond, [] {});
  EXPECT_EQ(sched.peek_next_time(), from_millis(2));
  EXPECT_TRUE(sched.cancel(near));
  EXPECT_EQ(sched.peek_next_time(), 2 * 3600 * kSecond);
}

TEST(SchedulerWheelTest, RunUntilStopsBetweenBuckets) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(from_millis(1), [&fired] { ++fired; });
  sched.schedule_at(from_millis(50), [&fired] { ++fired; });
  sched.run_until(from_millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), from_millis(10));
  sched.run_until(from_millis(60));
  EXPECT_EQ(fired, 2);
}

// ------------------------------------------ near-window run insertion
//
// Events scheduled behind the drain frontier (inside the level-0 bucket the
// run was loaded from) join the sorted run at their (t, seq) place rather
// than the heap. These tests check that path against the heap-only order.

/// Level-0 bucket width: 2^17 ns.
constexpr SimTime kBucketNs = SimTime{1} << 17;

/// Seeded self-scheduling workload. Each callback logs (event, now), then
/// schedules follow-ups at now + {0, 1 ns, a point inside its level-0
/// bucket, the bucket's last ns, another recent event's t, up to 3 ms out}
/// and sometimes cancels a recent event, logging the cancel result. Run
/// once with the wheel on and once with it off, the two logs must match.
class FollowUpWorkload {
 public:
  FollowUpWorkload(bool wheel, std::uint64_t seed) : rng_(seed) { sched_.set_wheel_enabled(wheel); }

  /// Drives the workload with run_until stops every ~50 us, so stops land
  /// inside buckets, and schedules one near-window event from outside at
  /// each stop. Returns the log.
  std::vector<std::int64_t> run() {
    for (int i = 0; i < 64; ++i) schedule(rng_.uniform_int(0, from_millis(1)));
    SimTime until = 0;
    while (!sched_.empty()) {
      until += 50'000 + rng_.uniform_int(0, 999);
      sched_.run_until(until);
      log_.push_back(-2);
      log_.push_back(sched_.now());
      if (times_.size() < kMaxEvents) schedule(follow_up_time(sched_.now()));
    }
    return log_;
  }

  std::size_t max_heap_size() const { return max_heap_; }
  /// Schedules that joined the sorted run (raised its staged count by one).
  std::size_t run_joins() const { return run_joins_; }
  std::size_t scheduled() const { return times_.size(); }

 private:
  static constexpr std::size_t kMaxEvents = 20'000;

  void schedule(SimTime t) {
    const auto i = static_cast<std::uint32_t>(times_.size());
    times_.push_back(t);
    const std::size_t staged = sched_.stats().run_entries;
    ids_.push_back(sched_.schedule_at(t, [this, i] { fire(i); }));
    const Scheduler::Stats after = sched_.stats();
    if (after.run_entries == staged + 1) ++run_joins_;
    max_heap_ = std::max(max_heap_, after.heap_size);
  }

  std::size_t recent() {
    const std::size_t n = times_.size();
    return n - 1 - static_cast<std::size_t>(rng_.uniform_int(0, std::min<std::int64_t>(31, n - 1)));
  }

  SimTime follow_up_time(SimTime now) {
    const SimTime bucket_last = (now / kBucketNs + 1) * kBucketNs - 1;
    // Half the follow-ups spread over the next 3 ms, which keeps buckets
    // at tens of events; the other half hit the near-window cases.
    if (rng_.bernoulli(0.5)) return now + rng_.uniform_int(1, from_millis(3));
    switch (rng_.uniform_int(0, 4)) {
      case 0:
        return now;
      case 1:
        return now + 1;
      case 2:
        return rng_.uniform_int(now, bucket_last);
      case 3:
        return bucket_last;
      default:
        return std::max(times_[recent()], now);
    }
  }

  void fire(std::uint32_t i) {
    const SimTime now = sched_.now();
    log_.push_back(i);
    log_.push_back(now);
    const int spawn = int{rng_.bernoulli(0.55)} + int{rng_.bernoulli(0.55)};
    for (int k = 0; k < spawn && times_.size() < kMaxEvents; ++k)
      schedule(follow_up_time(now));
    if (rng_.bernoulli(0.1)) {
      const std::size_t j = recent();
      log_.push_back(-1);
      log_.push_back(sched_.cancel(ids_[j]) ? static_cast<std::int64_t>(j) : -1);
    }
  }

  Scheduler sched_;
  Rng rng_;
  std::vector<SimTime> times_;
  std::vector<EventId> ids_;
  std::vector<std::int64_t> log_;
  std::size_t max_heap_ = 0;
  std::size_t run_joins_ = 0;
};

TEST(SchedulerWheelTest, NearWindowFollowUpsMatchHeapOnlyOrder) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    FollowUpWorkload wheel(true, seed);
    FollowUpWorkload heap_only(false, seed);
    const auto a = wheel.run();
    const auto b = heap_only.run();
    EXPECT_EQ(wheel.scheduled(), 20'000u) << "seed " << seed;
    ASSERT_EQ(a.size(), b.size()) << "seed " << seed;
    for (std::size_t k = 0; k < a.size(); ++k)
      ASSERT_EQ(a[k], b[k]) << "seed " << seed << " log entry " << k;
    // Both near-window paths ran in the wheel-on order: thousands of joins
    // into the sorted run, and slides past the bound that took the heap.
    EXPECT_GT(wheel.run_joins(), 2000u) << "seed " << seed;
    EXPECT_GT(wheel.max_heap_size(), 0u) << "seed " << seed;
    EXPECT_EQ(heap_only.run_joins(), 0u) << "seed " << seed;
  }
}

TEST(SchedulerWheelTest, DeepRunInsertionFallsBackToTheHeap) {
  // 1000 events at one t inside a bucket: once the bucket is drained into
  // the run, an event scheduled at the same t belongs behind all of them,
  // past the bounded slide, so it takes the heap and still runs last.
  Scheduler sched;
  std::vector<int> order;
  const SimTime t = from_millis(1) + 7;
  for (int i = 0; i < 1000; ++i) sched.schedule_at(t, [&order, i] { order.push_back(i); });
  ASSERT_TRUE(sched.step());  // drains the bucket into the run, runs event 0
  EXPECT_EQ(sched.stats().run_entries, 999u);
  sched.schedule_at(t, [&order] { order.push_back(1000); });
  EXPECT_EQ(sched.stats().heap_size, 1u);
  EXPECT_EQ(sched.stats().run_entries, 999u);
  sched.run();
  ASSERT_EQ(order.size(), 1001u);
  for (int i = 0; i <= 1000; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SchedulerWheelTest, ShallowRunInsertionStaysOutOfTheHeap) {
  // The same shape with only a few events ahead: the late event slides
  // into the run's consumed prefix instead of the heap, and a cancel of it
  // is honoured there.
  Scheduler sched;
  std::vector<int> order;
  const SimTime t = from_millis(1) + 7;
  for (int i = 0; i < 10; ++i) sched.schedule_at(t + i, [&order, i] { order.push_back(i); });
  ASSERT_TRUE(sched.step());
  const EventId dropped = sched.schedule_at(t + 3, [&order] { order.push_back(-1); });
  sched.schedule_at(t + 3, [&order] { order.push_back(100); });
  sched.schedule_at(t + 20, [&order] { order.push_back(200); });
  EXPECT_EQ(sched.stats().heap_size, 0u);
  EXPECT_EQ(sched.stats().run_entries, 12u);
  EXPECT_TRUE(sched.cancel(dropped));
  EXPECT_EQ(sched.stats().wheel_entries, 11u);
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 100, 4, 5, 6, 7, 8, 9, 200}));
  EXPECT_EQ(sched.stats().wheel_entries, 0u);
}

TEST(SchedulerWheelTest, ConcentratedPacingHorizonDoesNotGrowWheelAfterReserve) {
  // A pacing gap wider than a level's bucket width concentrates the whole
  // population into the sliding insertion bucket (here 1000 synchronized
  // 50 ms timers, landing one level up). Whichever bucket holds them, the
  // entries occupy blocks of the one pool that reserve() sized, so the
  // wheel capacity must not move, even across level-1/level-2 period
  // boundaries (8.6 s), and nothing may leak into growth over many wraps.
  Scheduler sched;
  sched.reserve(4096);
  struct Rearm {
    Scheduler* sched;
    void operator()() const {
      Scheduler* s = sched;
      s->schedule_in(from_millis(50), Rearm{s});
    }
  };
  for (int i = 0; i < 1000; ++i) sched.schedule_in(from_millis(50), Rearm{&sched});
  sched.run_until(from_seconds(2));  // settle: pool buffers find their buckets
  const Scheduler::Stats settled = sched.stats();
  sched.run_until(from_seconds(30));  // 3+ level-1 wraps
  const Scheduler::Stats after = sched.stats();
  EXPECT_EQ(after.wheel_capacity, settled.wheel_capacity);
  EXPECT_EQ(after.heap_capacity, settled.heap_capacity);
  EXPECT_EQ(after.run_capacity, settled.run_capacity);
  EXPECT_EQ(after.slot_capacity, settled.slot_capacity);
}

TEST(SchedulerWheelTest, PacingPopulationStaysWithinTheBlockBound) {
  // population-1m's pacing shape, scaled down: 10^5 self-rescheduling
  // timers at one 5 s period, phases spread over the first period, run past
  // two level-1 wraps. However the entries spread over the buckets, they
  // never occupy more than one partial block per bucket beyond the full
  // ones, and the pool reserve() sized never grows.
  constexpr std::size_t kTimers = 100'000;
  constexpr SimTime kPeriod = 5 * kSecond;
  Scheduler sched;
  sched.reserve(kTimers);
  const Scheduler::Stats reserved = sched.stats();
  struct Rearm {
    Scheduler* sched;
    void operator()() const {
      Scheduler* s = sched;
      s->schedule_in(kPeriod, Rearm{s});
    }
  };
  for (std::size_t i = 0; i < kTimers; ++i)
    sched.schedule_at(static_cast<SimTime>(i) * (kPeriod / static_cast<SimTime>(kTimers)),
                      Rearm{&sched});
  sched.run_until(from_seconds(20));
  const Scheduler::Stats after = sched.stats();
  EXPECT_EQ(after.pending, kTimers);
  EXPECT_GE(after.executed, 3 * kTimers);
  EXPECT_GT(after.cascades, 0u);
  const std::size_t full_blocks =
      (kTimers + Scheduler::kBlockEntries - 1) / Scheduler::kBlockEntries;
  EXPECT_LE(after.wheel_blocks_peak, full_blocks + 768);
  EXPECT_EQ(after.wheel_capacity, reserved.wheel_capacity);
  EXPECT_EQ(after.heap_capacity, reserved.heap_capacity);
  EXPECT_EQ(after.slot_capacity, reserved.slot_capacity);
  EXPECT_EQ(after.run_capacity, reserved.run_capacity);
}

TEST(SchedulerWheelTest, OneEventPerBucketFitsTheReserve) {
  // The partial-block worst case: one event in every bucket the level rule
  // can reach from frontier 0, each holding a block of its own. That is all
  // 256 level-0 buckets and 255 of each higher level (the frontier's own
  // level-1 and level-2 bucket never holds entries). reserve(768) covers it
  // without growing, and the events still run in time order.
  Scheduler sched;
  sched.reserve(768);
  const Scheduler::Stats reserved = sched.stats();
  std::vector<SimTime> times;
  for (SimTime p = 0; p < 256; ++p) times.push_back(p << 17);        // level 0
  for (SimTime p = 1; p < 256; ++p) times.push_back(p << (17 + 8));  // level 1
  for (SimTime p = 1; p < 256; ++p) times.push_back(p << (17 + 16));  // level 2
  std::vector<SimTime> ran;
  for (auto it = times.rbegin(); it != times.rend(); ++it)
    sched.schedule_at(*it, [&sched, &ran] { ran.push_back(sched.now()); });
  const Scheduler::Stats placed = sched.stats();
  EXPECT_EQ(placed.heap_size, 0u);
  EXPECT_EQ(placed.wheel_entries, 766u);
  EXPECT_EQ(placed.wheel_blocks_peak, 766u);
  EXPECT_EQ(placed.wheel_capacity, reserved.wheel_capacity);
  sched.run();
  EXPECT_EQ(ran, times);
  const Scheduler::Stats after = sched.stats();
  EXPECT_EQ(after.wheel_capacity, reserved.wheel_capacity);
  EXPECT_EQ(after.heap_capacity, reserved.heap_capacity);
  EXPECT_EQ(after.slot_capacity, reserved.slot_capacity);
  EXPECT_EQ(after.run_capacity, reserved.run_capacity);
}

// The regression the ISSUE gates on: a full dumbbell scenario (the machinery
// under every paper figure) must produce byte-identical trajectories with
// the wheel enabled and disabled. Any divergence — one tie broken
// differently, one event reordered — shows up in the chaotic convergence
// dynamics within a few control intervals.
TEST(SchedulerWheelTest, ScenarioMetricsAreByteIdenticalWheelVsHeap) {
  const auto run = [](bool wheel) {
    ScenarioConfig cfg;
    cfg.pels_flows = 3;
    cfg.tcp_flows = 1;
    cfg.seed = 42;
    cfg.scheduler_wheel = wheel;
    auto s = std::make_unique<DumbbellScenario>(cfg);
    s->run_until(10 * kSecond);
    return s;
  };
  auto with_wheel = run(true);
  auto heap_only = run(false);

  EXPECT_GT(with_wheel->sim().scheduler().stats().bucket_loads, 0u)
      << "wheel run never touched the wheel; the comparison is vacuous";
  EXPECT_EQ(heap_only->sim().scheduler().stats().bucket_loads, 0u);

  for (int f = 0; f < with_wheel->pels_flow_count(); ++f) {
    const auto series = [](DumbbellScenario& s, int flow) {
      return std::vector<const TimeSeries*>{&s.source(flow).rate_series(),
                                            &s.source(flow).gamma_series(),
                                            &s.source(flow).loss_series()};
    };
    const auto a = series(*with_wheel, f);
    const auto b = series(*heap_only, f);
    for (std::size_t k = 0; k < a.size(); ++k) {
      ASSERT_EQ(a[k]->size(), b[k]->size()) << "flow " << f << " series " << k;
      for (std::size_t i = 0; i < a[k]->size(); ++i) {
        ASSERT_EQ((*a[k])[i].t, (*b[k])[i].t) << "flow " << f << " series " << k;
        // Bitwise, not approximate: the wheel must not perturb one ULP.
        ASSERT_EQ((*a[k])[i].value, (*b[k])[i].value)
            << "flow " << f << " series " << k << " point " << i;
      }
    }
    EXPECT_EQ(with_wheel->source(f).fgs_bytes_sent(), heap_only->source(f).fgs_bytes_sent());
    for (const Color c : {Color::kGreen, Color::kYellow, Color::kRed}) {
      EXPECT_EQ(with_wheel->sink(f).packets_received(c), heap_only->sink(f).packets_received(c));
    }
  }
  const auto& qa = with_wheel->pels_queue()->pels_group_counters();
  const auto& qb = heap_only->pels_queue()->pels_group_counters();
  for (std::size_t c = 0; c < kNumColors; ++c) {
    EXPECT_EQ(qa.arrivals[c], qb.arrivals[c]);
    EXPECT_EQ(qa.drops[c], qb.drops[c]);
  }
}

}  // namespace
}  // namespace pels
