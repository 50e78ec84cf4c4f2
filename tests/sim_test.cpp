// Tests for src/sim: scheduler ordering/cancellation semantics, run_until
// boundaries, periodic timers, and the Simulation context.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/scheduler.h"
#include "sim/simulation.h"
#include "sim/timer.h"
#include "util/rng.h"

namespace pels {
namespace {

TEST(SchedulerCallbackTest, EmptyAndNullptrAreFalsy) {
  Scheduler::Callback fn;
  EXPECT_FALSE(fn);
  int calls = 0;
  fn = [&calls] { ++calls; };
  EXPECT_TRUE(fn);
  fn();
  EXPECT_EQ(calls, 1);
  fn = nullptr;
  EXPECT_FALSE(fn);
}

TEST(SchedulerCallbackTest, CapacityIsCompileTimeConstant) {
  static_assert(Scheduler::Callback::capacity() == kSchedulerCallbackCapacity);
  static_assert(std::is_trivially_copyable_v<Scheduler::Callback>);
  SUCCEED();
}

TEST(SchedulerCallbackTest, CopiesAreIndependentCallables) {
  // The slot pool copies callbacks as bytes: a copy runs the same capture,
  // and invoking the original does not consume it.
  int sum = 0;
  const int step = 7;
  Scheduler::Callback a = [&sum, step] { sum += step; };
  Scheduler::Callback b = a;
  a();
  b();
  a();
  EXPECT_EQ(sum, 21);
}

TEST(SchedulerTest, StartsEmptyAtZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.step());
}

TEST(SchedulerTest, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(SchedulerTest, EqualTimesRunFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.schedule_at(5, [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SchedulerTest, NowAdvancesToEventTime) {
  Scheduler s;
  SimTime seen = -1;
  s.schedule_at(123, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 123);
}

TEST(SchedulerTest, ScheduleInIsRelative) {
  Scheduler s;
  SimTime seen = -1;
  s.schedule_at(100, [&] {
    s.schedule_in(50, [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, 150);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTest, CancelReturnsFalseForExecutedOrUnknown) {
  Scheduler s;
  const EventId id = s.schedule_at(1, [] {});
  s.run();
  EXPECT_FALSE(s.cancel(id));      // already executed
  EXPECT_FALSE(s.cancel(0));       // never valid
  EXPECT_FALSE(s.cancel(999999));  // never issued
}

TEST(SchedulerTest, DoubleCancelIsIdempotent) {
  Scheduler s;
  const EventId id = s.schedule_at(10, [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerTest, CancelDoesNotDisturbOtherEvents) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(10, [&] { order.push_back(1); });
  const EventId id = s.schedule_at(20, [&] { order.push_back(2); });
  s.schedule_at(30, [&] { order.push_back(3); });
  s.cancel(id);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(SchedulerTest, PendingCountTracksLiveEvents) {
  Scheduler s;
  const EventId a = s.schedule_at(10, [] {});
  s.schedule_at(20, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
  s.step();
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SchedulerTest, RunUntilStopsAtBoundaryInclusive) {
  Scheduler s;
  std::vector<SimTime> fired;
  for (SimTime t : {10, 20, 30, 40}) s.schedule_at(t, [&fired, &s] { fired.push_back(s.now()); });
  s.run_until(30);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20, 30}));
  EXPECT_EQ(s.now(), 30);
  EXPECT_EQ(s.pending(), 1u);
  s.run_until(100);
  EXPECT_EQ(fired.back(), 40);
  // With the queue drained, now() still advances to the requested boundary.
  EXPECT_EQ(s.now(), 100);
}

TEST(SchedulerTest, RunUntilWithOnlyCancelledEventsAdvancesTime) {
  Scheduler s;
  const EventId id = s.schedule_at(10, [] {});
  s.cancel(id);
  s.run_until(50);
  EXPECT_EQ(s.now(), 50);
  EXPECT_EQ(s.executed(), 0u);
}

TEST(SchedulerTest, EventsScheduledDuringExecutionRun) {
  Scheduler s;
  int depth = 0;
  // Scheduler captures must be trivially copyable: the events capture the
  // std::function by reference, never by value.
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_in(10, [&recurse] { recurse(); });
  };
  s.schedule_at(0, [&recurse] { recurse(); });
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), 40);
  EXPECT_EQ(s.executed(), 5u);
}

TEST(SchedulerTest, ManyEventsStressOrdering) {
  Scheduler s;
  Rng rng(11);
  SimTime last = -1;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    s.schedule_at(rng.uniform_int(0, 1000), [&] {
      if (s.now() < last) monotone = false;
      last = s.now();
    });
  }
  s.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(s.executed(), 10000u);
}

TEST(SchedulerTest, StaleIdCannotCancelEventReusingSlot) {
  // After an event is cancelled or executed, its slot is recycled for the
  // next schedule_at. The old EventId must not cancel the new occupant.
  Scheduler s;
  const EventId a = s.schedule_at(10, [] {});
  EXPECT_TRUE(s.cancel(a));
  bool ran = false;
  const EventId b = s.schedule_at(20, [&] { ran = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(s.cancel(a));  // stale id, even though the slot was reused
  s.run();
  EXPECT_TRUE(ran);

  // Same for an *executed* event's id.
  EXPECT_FALSE(s.cancel(b));
  bool ran2 = false;
  const EventId c = s.schedule_at(30, [&] { ran2 = true; });
  EXPECT_FALSE(s.cancel(b));
  s.run();
  EXPECT_TRUE(ran2);
  EXPECT_TRUE(s.cancel(c) == false);  // c already executed
}

TEST(SchedulerTest, CancelSameTimeEventFromCallback) {
  // An event may cancel a later event scheduled at the very same time; the
  // victim must not fire even though it is already near the heap top.
  Scheduler s;
  std::vector<int> order;
  EventId victim = 0;
  s.schedule_at(10, [&] {
    order.push_back(1);
    EXPECT_TRUE(s.cancel(victim));
  });
  victim = s.schedule_at(10, [&] { order.push_back(2); });
  s.schedule_at(10, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(SchedulerTest, FifoTiesSurviveInterleavedCancels) {
  // Cancel every other event at one time; survivors keep insertion order.
  Scheduler s;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i)
    ids.push_back(s.schedule_at(5, [&order, i] { order.push_back(i); }));
  for (std::size_t i = 0; i < ids.size(); i += 2) EXPECT_TRUE(s.cancel(ids[i]));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(SchedulerTest, StatsCountersTrackLifecycle) {
  // Near events (t=10..30 from now=0) land in the wheel's calendar tier; a
  // far event beyond the wheel horizon lands on the heap. Cancelling a
  // wheel resident drops it from wheel_entries immediately (live count),
  // but the dead entry is only purged — and counted stale — at drain.
  Scheduler s;
  const EventId a = s.schedule_at(10, [] {});
  s.schedule_at(20, [] {});
  s.schedule_at(30, [] {});
  const EventId far = s.schedule_at(from_seconds(3600.0), [] {});
  s.cancel(a);
  auto st = s.stats();
  EXPECT_EQ(st.scheduled, 4u);
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.executed, 0u);
  EXPECT_EQ(st.pending, 3u);
  EXPECT_EQ(st.wheel_entries, 2u);  // live near events; cancelled one left
  EXPECT_EQ(st.heap_size, 1u);      // the far event overflowed to the heap
  s.cancel(far);
  s.run();
  st = s.stats();
  EXPECT_EQ(st.executed, 2u);
  EXPECT_EQ(st.stale_skipped, 2u);  // one purged at drain, one at the heap top
  EXPECT_EQ(st.pending, 0u);
  EXPECT_EQ(st.wheel_entries, 0u);
  EXPECT_EQ(st.run_entries, 0u);
  EXPECT_EQ(st.heap_size, 0u);
  EXPECT_EQ(st.bucket_loads, 1u);  // t=10..30 share one 131 us bucket
}

TEST(SchedulerTest, HeapOnlyModeBypassesWheel) {
  Scheduler s;
  s.set_wheel_enabled(false);
  std::vector<int> order;
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  auto st = s.stats();
  EXPECT_EQ(st.heap_size, 2u);
  EXPECT_EQ(st.wheel_entries, 0u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SchedulerTest, RunUntilExecutesEventScheduledAtBoundaryFromCallback) {
  // A callback firing exactly at t_end schedules another event at t_end;
  // run_until must execute it too (events at exactly t_end are inclusive).
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(30, [&] {
    order.push_back(1);
    s.schedule_at(30, [&] { order.push_back(2); });
    s.schedule_at(31, [&] { order.push_back(3); });
  });
  s.run_until(30);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), 30);
  EXPECT_EQ(s.pending(), 1u);  // the t=31 event remains
}

TEST(SchedulerTest, SlotPoolRecyclesUnderChurn) {
  // A rolling window of cancel+reschedule must not grow the slot pool
  // beyond the window size (plus slack), proving slots are recycled.
  Scheduler s;
  std::vector<EventId> window;
  for (int i = 0; i < 64; ++i) window.push_back(s.schedule_at(i + 1000, [] {}));
  for (int round = 0; round < 1000; ++round) {
    const std::size_t k = static_cast<std::size_t>(round) % window.size();
    EXPECT_TRUE(s.cancel(window[k]));
    window[k] = s.schedule_at(2000 + round, [] {});
  }
  EXPECT_LE(s.stats().slots, 2 * window.size());
  s.run();
  EXPECT_EQ(s.stats().executed, 64u);
}

TEST(SchedulerTest, SchedulingInThePastThrowsInEveryBuild) {
  // Not an assert: a release build must refuse the event too, naming both
  // times, and leave the scheduler as it was.
  Scheduler s;
  s.schedule_at(500, [] {});
  s.run_until(100);
  ASSERT_EQ(s.now(), 100);
  try {
    s.schedule_at(99, [] {});
    FAIL() << "scheduling before now() did not throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("t = 99 ns"), std::string::npos) << what;
    EXPECT_NE(what.find("now() = 100 ns"), std::string::npos) << what;
  }
  EXPECT_THROW(s.schedule_in(-1, [] {}), std::logic_error);
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.stats().scheduled, 1u);
  s.schedule_at(100, [] {});  // now() itself is not the past
  s.run();
  EXPECT_EQ(s.executed(), 2u);
}

// ---------------------------------------------------------- PeriodicTimer

TEST(PeriodicTimerTest, FiresAtPeriodMultiples) {
  Scheduler s;
  std::vector<SimTime> fires;
  PeriodicTimer timer(s, 100, [&] { fires.push_back(s.now()); });
  timer.start();
  s.run_until(350);
  EXPECT_EQ(fires, (std::vector<SimTime>{100, 200, 300}));
  EXPECT_TRUE(timer.running());
}

TEST(PeriodicTimerTest, StartAfterControlsFirstFire) {
  Scheduler s;
  std::vector<SimTime> fires;
  PeriodicTimer timer(s, 100, [&] { fires.push_back(s.now()); });
  timer.start_after(10);
  s.run_until(250);
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 110, 210}));
}

TEST(PeriodicTimerTest, StopHaltsFiring) {
  Scheduler s;
  int count = 0;
  PeriodicTimer timer(s, 100, [&] { ++count; });
  timer.start();
  s.run_until(250);
  timer.stop();
  EXPECT_FALSE(timer.running());
  s.run_until(1000);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTimerTest, StopFromInsideCallback) {
  Scheduler s;
  int count = 0;
  PeriodicTimer* self = nullptr;
  PeriodicTimer timer(s, 100, [&] {
    if (++count == 3) self->stop();
  });
  self = &timer;
  timer.start();
  s.run_until(10000);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimerTest, DoubleStartIsNoOp) {
  Scheduler s;
  int count = 0;
  PeriodicTimer timer(s, 100, [&] { ++count; });
  timer.start();
  timer.start();
  s.run_until(100);
  EXPECT_EQ(count, 1);
}

TEST(PeriodicTimerTest, SetPeriodTakesEffectAtNextRescheduling) {
  // The fire at t=100 already rescheduled t=200 with the old period; the new
  // 50-unit period applies from the t=200 rescheduling onward.
  Scheduler s;
  std::vector<SimTime> fires;
  PeriodicTimer timer(s, 100, [&] { fires.push_back(s.now()); });
  timer.start();
  s.run_until(100);
  timer.set_period(50);
  s.run_until(320);
  EXPECT_EQ(fires, (std::vector<SimTime>{100, 200, 250, 300}));
}

TEST(PeriodicTimerTest, RestartAfterStop) {
  Scheduler s;
  int count = 0;
  PeriodicTimer timer(s, 100, [&] { ++count; });
  timer.start();
  s.run_until(150);
  timer.stop();
  s.run_until(400);
  timer.start();
  s.run_until(500);
  EXPECT_EQ(count, 2);  // one at 100, one at 500
}

// ------------------------------------------------------------- Simulation

TEST(SimulationTest, RngStreamsAreDeterministic) {
  Simulation sim1(99);
  Simulation sim2(99);
  Rng a = sim1.make_rng(5);
  Rng b = sim2.make_rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c = sim1.make_rng(6);
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(SimulationTest, AfterAndAtSchedule) {
  Simulation sim;
  std::vector<int> order;
  sim.at(20, [&] { order.push_back(2); });
  sim.after(10, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 20);
}

}  // namespace
}  // namespace pels
