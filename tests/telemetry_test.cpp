// Tests for the telemetry subsystem (src/telemetry): registry semantics,
// sampler determinism, the zero-allocation-per-sample contract, and
// byte-identical snapshot export across SweepRunner thread counts.
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/sweep.h"
#include "pels/scenario.h"
#include "sim/simulation.h"
#include "sim/timer.h"
#include "telemetry/metrics.h"
#include "telemetry/sampler.h"
#include "util/heap_count.h"

namespace pels {
namespace {

TEST(MetricsRegistry, RegistersAndReadsAllThreeKinds) {
  MetricsRegistry reg;
  Counter& c = reg.counter("pkts");
  Gauge& g = reg.gauge("loss");
  double probe_state = 1.5;
  reg.add_probe("depth", [&probe_state] { return probe_state; });

  ASSERT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.name(0), "pkts");
  EXPECT_EQ(reg.name(1), "loss");
  EXPECT_EQ(reg.name(2), "depth");

  c.inc();
  c.inc(41);
  g.set(0.25);
  EXPECT_DOUBLE_EQ(reg.read(0), 42.0);
  EXPECT_DOUBLE_EQ(reg.read(1), 0.25);
  EXPECT_DOUBLE_EQ(reg.read(2), 1.5);
  probe_state = -3.0;
  EXPECT_DOUBLE_EQ(reg.read(2), -3.0);

  EXPECT_EQ(reg.index_of("loss"), 1);
  EXPECT_EQ(reg.index_of("missing"), -1);
}

TEST(MetricsRegistry, SlotAddressesSurviveLaterRegistrations) {
  MetricsRegistry reg;
  Counter* first = &reg.counter("c0");
  Gauge* g0 = &reg.gauge("g0");
  // Enough registrations to force any vector-backed storage to reallocate.
  for (int i = 1; i < 100; ++i) {
    reg.counter(std::string("c").append(std::to_string(i)));
    reg.gauge(std::string("g").append(std::to_string(i)));
  }
  first->inc(7);
  g0->set(2.5);
  EXPECT_DOUBLE_EQ(reg.read(0), 7.0);
  EXPECT_DOUBLE_EQ(reg.read(static_cast<std::size_t>(reg.index_of("g0"))), 2.5);
}

TEST(MetricsRegistry, RejectsDuplicateAndEmptyNames) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.counter("x"), std::invalid_argument);
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.add_probe("x", [] { return 0.0; }), std::invalid_argument);
  EXPECT_THROW(reg.counter(""), std::invalid_argument);
}

TEST(TelemetryConfig, ValidatesOnlyWhenEnabled) {
  TelemetryConfig cfg;
  cfg.period = 0;
  EXPECT_NO_THROW(cfg.validate());  // disabled: not checked
  cfg.enabled = true;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.period = from_millis(100);
  cfg.max_samples = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.max_samples = 16;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(TimeSeriesSampler, SamplesOnThePeriodAndStopsAtCapacity) {
  Simulation sim(1);
  MetricsRegistry reg;
  Counter& ticks = reg.counter("ticks");
  // Start the producing timer first: at shared timestamps the sampler's tick
  // then executes after it (insertion order), observing post-update state.
  PeriodicTimer source(sim.scheduler(), from_millis(100), [&ticks] { ticks.inc(); });
  source.start();
  TimeSeriesSampler sampler(sim.scheduler(), reg, from_millis(100));
  sampler.reserve_runtime(8);
  sampler.start();

  sim.run_until(kSecond + from_millis(1));
  // 10 periodic instants, capacity 8: the overflow is counted, not stored.
  EXPECT_EQ(sampler.sample_count(), 8u);
  EXPECT_EQ(sampler.samples_dropped(), 2u);
  EXPECT_EQ(sampler.time_at(0), from_millis(100));
  EXPECT_EQ(sampler.time_at(7), from_millis(800));
  // The counter's timer started before the sampler, so at each shared
  // timestamp the snapshot sees the post-increment value: k at t = k*period.
  for (std::size_t k = 0; k < sampler.sample_count(); ++k) {
    EXPECT_DOUBLE_EQ(sampler.value_at(0, k), static_cast<double>(k + 1));
  }
}

TEST(TimeSeriesSampler, SeriesByNameMatchesByIndex) {
  Simulation sim(1);
  MetricsRegistry reg;
  Gauge& g = reg.gauge("a");
  reg.add_probe("b", [&sim] { return to_seconds(sim.now()); });
  TimeSeriesSampler sampler(sim.scheduler(), reg, from_millis(250));
  sampler.reserve_runtime(16);
  sampler.start();
  g.set(5.0);
  sim.run_until(kSecond);

  const TimeSeries by_name = sampler.series("b");
  const TimeSeries by_index = sampler.series(1);
  ASSERT_EQ(by_name.size(), by_index.size());
  for (std::size_t i = 0; i < by_name.size(); ++i) {
    EXPECT_EQ(by_name[i].t, by_index[i].t);
    EXPECT_DOUBLE_EQ(by_name[i].value, by_index[i].value);
  }
  EXPECT_THROW(sampler.series("nope"), std::invalid_argument);
}

TEST(TimeSeriesSampler, ZeroHeapAllocationsPerSampleAfterReserve) {
  Simulation sim(1);
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  double depth = 0.0;
  reg.add_probe("p", [&depth] { return depth; });
  TimeSeriesSampler sampler(sim.scheduler(), reg, from_millis(10));
  sampler.reserve_runtime(4096);

  c.inc(3);
  g.set(1.0);
  depth = 2.0;
  sampler.sample_now();  // warm-up: first snapshot of frozen storage

  const std::uint64_t before = heap_counts().allocs;
  for (int i = 0; i < 1000; ++i) {
    c.inc();
    g.set(static_cast<double>(i));
    depth = static_cast<double>(-i);
    sampler.sample_now();
  }
  const std::uint64_t allocs = heap_counts().allocs - before;
  EXPECT_EQ(allocs, 0u) << "snapshots must not allocate after reserve_runtime";
  EXPECT_EQ(sampler.sample_count(), 1001u);
}

TEST(TimeSeriesSampler, OverflowPathIsAllocationFreeToo) {
  Simulation sim(1);
  MetricsRegistry reg;
  reg.add_probe("p", [] { return 1.0; });
  TimeSeriesSampler sampler(sim.scheduler(), reg, from_millis(10));
  sampler.reserve_runtime(2);
  sampler.sample_now();
  sampler.sample_now();

  const std::uint64_t before = heap_counts().allocs;
  for (int i = 0; i < 100; ++i) sampler.sample_now();
  EXPECT_EQ(heap_counts().allocs - before, 0u);
  EXPECT_EQ(sampler.sample_count(), 2u);
  EXPECT_EQ(sampler.samples_dropped(), 100u);
}

// Full-stack steady state: the scenario's sampler must also take snapshots
// without heap traffic (probes read plain members; push slots are plain
// stores). This is the overhead guard behind the <= 2% pkts/s budget.
TEST(TimeSeriesSampler, ScenarioSnapshotsAreAllocationFree) {
  ScenarioConfig cfg;
  cfg.pels_flows = 2;
  cfg.tcp_flows = 1;
  cfg.seed = 3;
  cfg.telemetry.enabled = true;
  cfg.telemetry.max_samples = 64;  // deliberately small: exercises overflow
  DumbbellScenario s(cfg);
  s.run_until(2 * kSecond);
  TimeSeriesSampler& sampler = *s.telemetry_sampler();

  const std::uint64_t before = heap_counts().allocs;
  for (int i = 0; i < 200; ++i) sampler.sample_now();
  EXPECT_EQ(heap_counts().allocs - before, 0u)
      << "a scenario probe allocated during a snapshot";
}

TEST(DumbbellScenario, TelemetryOffByDefaultAndNullViews) {
  ScenarioConfig cfg;
  cfg.pels_flows = 1;
  DumbbellScenario s(cfg);
  EXPECT_EQ(s.metrics(), nullptr);
  EXPECT_EQ(s.telemetry_sampler(), nullptr);
}

TEST(DumbbellScenario, PushGaugesTrackTheFeedbackMeter) {
  ScenarioConfig cfg;
  cfg.pels_flows = 2;
  cfg.tcp_flows = 1;
  cfg.seed = 5;
  cfg.telemetry.enabled = true;
  DumbbellScenario s(cfg);
  s.run_until(5 * kSecond);

  MetricsRegistry& reg = *s.metrics();
  const auto idx = [&reg](const char* name) {
    const std::ptrdiff_t i = reg.index_of(name);
    EXPECT_GE(i, 0) << name;
    return static_cast<std::size_t>(i);
  };
  EXPECT_DOUBLE_EQ(reg.read(idx("bottleneck.p")), s.pels_queue()->current_loss());
  EXPECT_DOUBLE_EQ(reg.read(idx("bottleneck.p_fgs")), s.pels_queue()->current_fgs_loss());
  EXPECT_DOUBLE_EQ(reg.read(idx("bottleneck.feedback_epochs")),
                   static_cast<double>(s.pels_queue()->epoch()));
  // Source-side probes agree with the sources' own observable state.
  EXPECT_DOUBLE_EQ(reg.read(idx("flow0.rate_bps")), s.source(0).rate_bps());
  EXPECT_DOUBLE_EQ(reg.read(idx("flow0.gamma")), s.source(0).gamma());
  EXPECT_DOUBLE_EQ(reg.read(idx("sink0.fgs_bytes")),
                   static_cast<double>(s.sink(0).fgs_bytes_received()));
}

// The sampler's γ column must agree with the source's own control-tick
// series at shared instants — the determinism contract fig7 relies on.
TEST(DumbbellScenario, SamplerGammaMatchesSourceSeries) {
  ScenarioConfig cfg;
  cfg.pels_flows = 2;
  cfg.tcp_flows = 1;
  cfg.seed = 7;
  cfg.telemetry.enabled = true;
  cfg.telemetry.period = from_millis(100);
  cfg.telemetry.max_samples = 256;
  DumbbellScenario s(cfg);
  s.run_until(10 * kSecond);
  const TimeSeries tel = s.telemetry_sampler()->series("flow0.gamma");
  const TimeSeries& src = s.source(0).gamma_series();
  for (SimTime t = kSecond; t <= 10 * kSecond; t += kSecond) {
    EXPECT_EQ(tel.value_at(t), src.value_at(t)) << "at t = " << to_seconds(t) << " s";
  }
}

std::string telemetry_json_for(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.pels_flows = 2;
  cfg.tcp_flows = 1;
  cfg.seed = seed;
  cfg.telemetry.enabled = true;
  cfg.telemetry.period = from_millis(200);
  cfg.telemetry.max_samples = 64;
  DumbbellScenario s(cfg);
  s.run_until(3 * kSecond);
  std::ostringstream os;
  s.telemetry_sampler()->write_json(os);
  return os.str();
}

// The sweep-engine determinism contract extends to telemetry: snapshots
// exported from tasks run at 8 threads are byte-identical to the serial run.
TEST(SweepRunner, TelemetrySnapshotsByteIdenticalAcrossThreadCounts) {
  const auto make_tasks = [] {
    std::vector<std::function<std::string()>> tasks;
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL}) {
      tasks.push_back([seed] { return telemetry_json_for(seed); });
    }
    return tasks;
  };
  SweepRunner serial(1);
  SweepRunner wide(8);
  const auto a = serial.run(make_tasks());
  const auto b = wide.run(make_tasks());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok()) << a[i].error;
    ASSERT_TRUE(b[i].ok()) << b[i].error;
    EXPECT_EQ(*a[i].value, *b[i].value) << "task " << i;
    EXPECT_FALSE(a[i].value->empty());
  }
}

TEST(TimeSeriesSampler, CsvAndJsonExportsAreStable) {
  Simulation sim(1);
  MetricsRegistry reg;
  Gauge& g = reg.gauge("x");
  TimeSeriesSampler sampler(sim.scheduler(), reg, from_millis(500));
  sampler.reserve_runtime(8);
  sampler.start();
  g.set(0.125);
  sim.run_until(kSecond);

  std::ostringstream csv1, csv2, json1, json2;
  sampler.write_csv(csv1);
  sampler.write_csv(csv2);
  sampler.write_json(json1);
  sampler.write_json(json2);
  EXPECT_EQ(csv1.str(), csv2.str());
  EXPECT_EQ(json1.str(), json2.str());
  EXPECT_NE(csv1.str().find("t_seconds,x"), std::string::npos);
  EXPECT_NE(csv1.str().find("0.125"), std::string::npos);
  EXPECT_NE(json1.str().find("\"samples\": 2"), std::string::npos);
}

}  // namespace
}  // namespace pels
