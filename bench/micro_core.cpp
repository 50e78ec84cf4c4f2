// Microbenchmarks (google-benchmark) for the hot paths of the simulator:
// event scheduling, queue disciplines, packetization, decoding, the
// population control tick, instrument registration, and end-to-end
// simulated-seconds-per-wallclock-second of the full scenario.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "cc/flow_table.h"
#include "pels/scenario.h"
#include "queue/drop_tail.h"
#include "queue/pels_queue.h"
#include "sim/scheduler.h"
#include "telemetry/metrics.h"
#include "video/decoder.h"
#include "video/fgs.h"

namespace pels {
namespace {

Packet make_packet(std::int32_t size, Color color) {
  Packet p;
  p.size_bytes = size;
  p.color = color;
  return p;
}

void BM_SchedulerScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    Scheduler sched;
    for (int i = 0; i < 1000; ++i) {
      sched.schedule_at(i % 97, [] {});
    }
    sched.run();
    benchmark::DoNotOptimize(sched.executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerScheduleAndRun);

void BM_DropTailEnqueueDequeue(benchmark::State& state) {
  DropTailQueue q(1024);
  Packet out;
  for (auto _ : state) {
    q.enqueue(make_packet(500, Color::kGreen));
    benchmark::DoNotOptimize(q.dequeue(out));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DropTailEnqueueDequeue);

void BM_PelsQueueEnqueueDequeue(benchmark::State& state) {
  Simulation sim;
  PelsQueue q(sim.scheduler(), PelsQueueConfig{});
  int i = 0;
  const Color colors[] = {Color::kGreen, Color::kYellow, Color::kRed, Color::kInternet};
  Packet out;
  for (auto _ : state) {
    q.enqueue(make_packet(500, colors[i++ % 4]));
    benchmark::DoNotOptimize(q.dequeue(out));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PelsQueueEnqueueDequeue);

void BM_PacketizeFrame(benchmark::State& state) {
  const VideoConfig video;
  for (auto _ : state) {
    const FramePlan plan = plan_frame(video, 0, 2e6, 0.15);
    benchmark::DoNotOptimize(packetize(video, plan));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketizeFrame);

void BM_DecodeFrame(benchmark::State& state) {
  RdModel rd;
  FgsDecoder dec(rd);
  FrameReception rx;
  rx.frame_id = 10;
  rx.base_bytes_expected = 1600;
  rx.base_bytes_received = 1600;
  for (std::int32_t off = 0; off < 20000; off += 500) rx.fgs_chunks.emplace_back(off, 500);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dec.decode(rx));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodeFrame);

void BM_FlowTableFeedbackAll(benchmark::State& state) {
  // One population control tick (MKC eq. (8) plus the gamma update) over a
  // full table of 10^6 slots, the population-1m shape; per_flow is the
  // per-slot cost of the pass (printed in ns).
  const auto flows = static_cast<std::size_t>(state.range(0));
  FlowTable table(MkcConfig{}, GammaConfig{});
  table.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) table.add_flow();
  int tick = 0;
  for (auto _ : state) {
    // Alternate under- and overload so the rates keep moving.
    const double p = (tick++ & 1) != 0 ? 0.05 : -0.05;
    table.apply_feedback_all(p, 0.02, 0);
    benchmark::ClobberMemory();
  }
  const auto processed = static_cast<double>(state.iterations()) * static_cast<double>(flows);
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.counters["per_flow"] =
      benchmark::Counter(processed, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FlowTableFeedbackAll)->Arg(1'000'000)->Unit(benchmark::kMillisecond);

void BM_MetricsRegistryRegister(benchmark::State& state) {
  // Registering n instruments (counters, gauges and probes in turn) into a
  // fresh registry, the set-up step of every telemetry-enabled scenario (the
  // dumbbell registers about 700); per_registration is the cost of one
  // registration (printed in ns). It stays flat in n while the duplicate
  // check is O(1).
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::string> names;
  names.reserve(n);
  for (std::size_t i = 0; i < n; ++i) names.push_back("flow" + std::to_string(i) + ".rate_bps");
  for (auto _ : state) {
    MetricsRegistry reg;
    for (std::size_t i = 0; i < n; ++i) {
      switch (i % 3) {
        case 0:
          reg.counter(names[i]);
          break;
        case 1:
          reg.gauge(names[i]);
          break;
        default:
          reg.add_probe(names[i], [] { return 0.0; });
      }
    }
    benchmark::DoNotOptimize(reg.size());
  }
  const auto processed = static_cast<double>(state.iterations()) * static_cast<double>(n);
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.counters["per_registration"] =
      benchmark::Counter(processed, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_MetricsRegistryRegister)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

void BM_FullScenarioSimulatedSecond(benchmark::State& state) {
  // Cost of one simulated second of the 4-flow + TCP dumbbell.
  ScenarioConfig cfg;
  cfg.pels_flows = 4;
  cfg.tcp_flows = 1;
  auto scenario = std::make_unique<DumbbellScenario>(cfg);
  SimTime t = 0;
  for (auto _ : state) {
    t += kSecond;
    scenario->run_until(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullScenarioSimulatedSecond)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pels

BENCHMARK_MAIN();
