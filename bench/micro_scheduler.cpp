// Microbenchmarks (google-benchmark) for the two hottest paths of the
// simulator core: discrete-event scheduling (events/sec under schedule/run,
// cancel-heavy, timer-churn and population-pacing workloads) and the PELS
// router queue's service cycle (a WRR pick, a strict-priority dequeue and a
// replacement enqueue), which every bottleneck transmission opportunity runs.
//
// These exist so hot-path rewrites are measured, not asserted: run the same
// binary on the before/after tree and compare items_per_second.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "queue/pels_queue.h"
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

/// Wheel storage at population scale: `n` self-rescheduling timers at one
/// 5 s period, phases spread over the first period (population-1m's pacing
/// shape without the flows). Set-up warms the wheel past a level-1 wrap
/// (8.6 s); each iteration then runs one timer, which re-arms itself, so
/// the reported time is ns per event.
void BM_SchedulerPacingPopulation(benchmark::State& state) {
  const auto n = static_cast<SimTime>(state.range(0));
  constexpr SimTime kPeriod = 5 * kSecond;
  struct Rearm {
    Scheduler* sched;
    void operator()() const {
      Scheduler* s = sched;
      s->schedule_in(kPeriod, Rearm{s});
    }
  };
  Scheduler sched;
  sched.reserve(static_cast<std::size_t>(n));
  for (SimTime i = 0; i < n; ++i) sched.schedule_at(i * (kPeriod / n), Rearm{&sched});
  sched.run_until(9 * kSecond);
  for (auto _ : state) benchmark::DoNotOptimize(sched.step());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerPacingPopulation)->Arg(1000000);

// ------------------------------------------------------------- PelsQueue

/// Builds a PelsQueue with every class backlogged — 512 packets each of
/// green, yellow, red and Internet, sizes cycling 200..1400 B — so each
/// dequeue runs a real WRR pick between the PELS group and the Internet
/// FIFO and a strict-priority pick inside the group.
std::unique_ptr<PelsQueue> make_backlogged_pels_queue(Scheduler& sched, int backlog_per_class) {
  PelsQueueConfig cfg;
  cfg.green_limit = cfg.yellow_limit = cfg.red_limit = cfg.internet_limit = 4096;
  auto q = std::make_unique<PelsQueue>(sched, cfg);
  const Color colors[] = {Color::kGreen, Color::kYellow, Color::kRed, Color::kInternet};
  for (int i = 0; i < backlog_per_class; ++i)
    for (Color c : colors) q->enqueue(make_packet(200 + 300 * (i % 5), c));
  return q;
}

/// The router service cycle on a backlogged queue: dequeue (serve), then
/// enqueue the served packet again so the backlog stays steady.
void BM_PelsQueueDequeueEnqueue(benchmark::State& state) {
  Scheduler sched;
  auto q = make_backlogged_pels_queue(sched, 512);
  Packet pkt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(q->dequeue(pkt));
    benchmark::DoNotOptimize(q->enqueue(std::move(pkt)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PelsQueueDequeueEnqueue);

}  // namespace
}  // namespace pels

BENCHMARK_MAIN();
