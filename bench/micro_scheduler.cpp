// Microbenchmarks (google-benchmark) for the two hottest paths of the
// simulator core: discrete-event scheduling (events/sec under schedule/run,
// cancel-heavy, and timer-churn workloads) and WrrQueue::peek (peeks/sec),
// which routers call on every transmission opportunity.
//
// These exist so hot-path rewrites are measured, not asserted: run the same
// binary on the before/after tree and compare items_per_second.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "queue/drop_tail.h"
#include "queue/priority.h"
#include "queue/wrr.h"
#include "sim/scheduler.h"

namespace pels {
namespace {

Packet make_packet(std::int32_t size, Color color) {
  Packet p;
  p.size_bytes = size;
  p.color = color;
  return p;
}

// ------------------------------------------------------------- Scheduler

/// Pure schedule + drain throughput: the common case of a simulation where
/// most events execute (transmissions, frame clocks, deliveries).
void BM_SchedulerScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Scheduler sched;
    for (int i = 0; i < n; ++i) sched.schedule_at(i % 97, [] {});
    sched.run();
    benchmark::DoNotOptimize(sched.executed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1000)->Arg(100000)->Arg(1000000);

/// Cancel-heavy workload: half the scheduled events are cancelled before the
/// run, the way pacing/retransmission timers behave. Stresses the cancel
/// bookkeeping and the stale-entry skip on pop.
void BM_SchedulerCancelHeavy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<EventId> ids(static_cast<std::size_t>(n));
  for (auto _ : state) {
    Scheduler sched;
    for (int i = 0; i < n; ++i)
      ids[static_cast<std::size_t>(i)] = sched.schedule_at(i % 97, [] {});
    for (int i = 0; i < n; i += 2) sched.cancel(ids[static_cast<std::size_t>(i)]);
    sched.run();
    benchmark::DoNotOptimize(sched.executed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SchedulerCancelHeavy)->Arg(1000)->Arg(100000)->Arg(1000000);

/// Timer churn: a rolling window of pending timers where every executed
/// event cancels one outstanding timer and schedules a replacement — the
/// steady-state shape of N flows with pacing + control + frame timers.
void BM_SchedulerTimerChurn(benchmark::State& state) {
  constexpr int kWindow = 256;
  Scheduler sched;
  std::vector<EventId> pending;
  pending.reserve(kWindow);
  SimTime horizon = 0;
  for (int i = 0; i < kWindow; ++i) pending.push_back(sched.schedule_at(++horizon, [] {}));
  std::size_t victim = 0;
  for (auto _ : state) {
    sched.cancel(pending[victim]);
    pending[victim] = sched.schedule_at(++horizon, [] {});
    victim = (victim + 1) % kWindow;
    sched.step();
    pending[victim] = sched.schedule_at(++horizon, [] {});
    victim = (victim + 1) % kWindow;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerTimerChurn);

/// Two-tier vs heap-only at population scale: steady-state churn (pop one,
/// schedule a replacement over a ~2 s spread horizon) with `pending` timers
/// outstanding — the event-queue shape of `pending` paced flows. The spread
/// matters: same-time workloads collapse into one bucket and measure the
/// slot pool, not the calendar. Arg 0 is the pending population, arg 1
/// selects the tier (0 = heap-only, 1 = wheel+heap); compare items_per_second
/// between the tier variants at equal population (bench/many_flows.cpp runs
/// the same comparison standalone and gates the ratio in CI).
void BM_SchedulerChurnTiered(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  const bool wheel = state.range(1) != 0;
  Scheduler sched;
  sched.set_wheel_enabled(wheel);
  sched.reserve(pending);
  const SimTime horizon = 2 * kSecond;
  std::uint64_t lcg = 0x9E3779B97F4A7C15ULL + pending;
  const auto draw = [&lcg, horizon]() -> SimTime {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<SimTime>((lcg >> 33) % static_cast<std::uint64_t>(horizon)) + 1;
  };
  for (std::size_t i = 0; i < pending; ++i) sched.schedule_at(draw(), [] {});
  for (auto _ : state) {
    sched.step();
    sched.schedule_in(draw(), [] {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerChurnTiered)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->Args({1000000, 0})
    ->Args({1000000, 1});

// ------------------------------------------------------------- WrrQueue

/// Builds the PELS-shaped WRR: child 0 = strict priority [G|Y|R], child 1 =
/// Internet FIFO, both backlogged so peek always has work to select.
std::unique_ptr<WrrQueue> make_backlogged_wrr(int backlog_per_child) {
  std::vector<WrrQueue::Child> children;
  children.push_back(
      {std::make_unique<StrictPriorityQueue>(std::vector<std::size_t>{4096, 4096, 4096},
                                             &StrictPriorityQueue::classify_by_color),
       0.5});
  children.push_back({std::make_unique<DropTailQueue>(4096), 0.5});
  auto q = std::make_unique<WrrQueue>(
      std::move(children),
      [](const Packet& p) { return p.color == Color::kInternet ? std::size_t{1} : 0; }, 1500);
  const Color colors[] = {Color::kGreen, Color::kYellow, Color::kRed, Color::kInternet};
  for (int i = 0; i < backlog_per_child; ++i)
    for (Color c : colors) q->enqueue(make_packet(200 + 300 * (i % 5), c));
  return q;
}

/// Repeated peek on a backlogged queue: the router asks "what would I send
/// next?" on every transmission opportunity, often several times between
/// state changes (tracing, delay accounting, conditional service).
void BM_WrrPeek(benchmark::State& state) {
  auto q = make_backlogged_wrr(512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q->peek());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WrrPeek);

/// The full router service cycle: peek (head inspection), dequeue (serve),
/// enqueue (replacement arrival keeps the backlog steady).
void BM_WrrPeekDequeueEnqueue(benchmark::State& state) {
  auto q = make_backlogged_wrr(512);
  Packet pkt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q->peek());
    q->dequeue(pkt);
    q->enqueue(std::move(pkt));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WrrPeekDequeueEnqueue);

}  // namespace
}  // namespace pels

BENCHMARK_MAIN();
