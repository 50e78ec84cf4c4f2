// Population-scale bench: flat per-packet cost from 1k to 1M concurrent PELS
// sources, two-tier (timing wheel + heap) event throughput against the
// heap-only baseline, and sharded-driver scaling under DomainRunner.
//
// Three measurements, written to BENCH_manyflows.json (schema v1, gated in
// CI by tools/bench_compare.py):
//   1. scheduler tiers: steady-state timer churn (pop one event, schedule a
//      replacement over a spread horizon — the shape N paced flows produce)
//      with the wheel on and off. The spread horizon matters: a same-time
//      workload parks every event in one bucket and measures the slot pool,
//      not the queue. Reported as events/sec per pending-population size;
//      the ratio at 1M pending is the ISSUE's >= 3x gate.
//   2. many flows: a parking-lot fabric driven by ManyFlowDriver at N = 1k,
//      N = 100k, and N = 1M video flows. The 1k and 100k populations share
//      one aggregate packet rate; the 1M case scales the aggregate (and the
//      bottleneck bandwidth with it) 10x so per-flow pacing gaps match the
//      100k case and the scheduler sees the same workload shape, just 10x
//      wider. ns/packet must stay flat (gated ratios: 100k/1k and the
//      ISSUE's 1M/1k <= 2x), every size must run its steady window with
//      zero heap allocations and zero pool growth after
//      Fabric::reserve_runtime (heap interposition + Scheduler::Stats
//      capacity probes, spare-pool circulation included), and the driver's
//      per-flow footprint (driver_memory_bytes / flow_count) must stay
//      within the stated bytes/flow budget. The scheduler's own share
//      (pending events x (slot + queue entry) / flows) is reported beside it
//      and gated separately by bench_compare.py.
//   3. sharded fat tree: the same driver sharded one-per-pod over a
//      domain_per_pod fabric, run under DomainRunner at 1 / 2 / 8 threads.
//      The end-state fingerprint must be byte-identical across thread
//      counts (hard failure here; also recorded for the gate), and each
//      run records wall clock, effective workers (clamped to
//      min(threads, domains, hardware)), and per-worker speedup so
//      bench_compare.py can gate scaling — or skip with a notice on
//      single-core runners.
//
// Usage: many_flows [--smoke] [--json PATH] [--label NAME]
//   --smoke shortens churn ops, simulated durations, and the sharded mix
//   for CI; every section (including 1M flows and the thread sweep) still
//   runs.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "exp/domain_runner.h"
#include "exp/fabric.h"
#include "sim/scheduler.h"
#include "util/cli.h"
#include "util/heap_count.h"
#include "util/table.h"
#include "util/time.h"

using namespace pels;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ------------------------------------------------------- scheduler tiers

/// Steady-state timer churn at a fixed pending population: every step pops
/// the earliest event and schedules a replacement at now + U(0, horizon).
/// This is the event-queue shape of N paced flows — each execution re-arms
/// one timer somewhere in the near future — and it exercises both tiers
/// (level-0 drains plus periodic cascades from the higher levels).
double churn_events_per_sec(bool wheel, std::size_t pending, std::uint64_t ops) {
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
  // Warm: let bucket/run/heap storage reach steady capacity before timing.
  const std::uint64_t warm = std::min<std::uint64_t>(ops / 4, pending);
  for (std::uint64_t i = 0; i < warm; ++i) {
    sched.step();
    sched.schedule_in(draw(), [] {});
  }
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    sched.step();
    sched.schedule_in(draw(), [] {});
  }
  const double wall_ms = ms_since(t0);
  return 1e3 * static_cast<double>(ops) / wall_ms;
}

struct TierResult {
  std::size_t pending = 0;
  double heap_ev_per_sec = 0.0;
  double wheel_ev_per_sec = 0.0;
  double speedup = 0.0;
};

TierResult measure_tier(std::size_t pending, std::uint64_t ops, int reps) {
  // Interleave modes and keep medians, so clock drift and cache state hit
  // both queues equally. The speedup is the median of *per-rep paired*
  // ratios, not the ratio of the two medians: within one rep heap and wheel
  // run back-to-back under the same machine state, so their ratio cancels
  // the wall-clock drift between reps that otherwise dominates the variance
  // of the dividend and divisor picked from different reps.
  std::vector<double> heap_runs;
  std::vector<double> wheel_runs;
  std::vector<double> ratios;
  for (int r = 0; r < reps; ++r) {
    const double heap_eps = churn_events_per_sec(false, pending, ops);
    const double wheel_eps = churn_events_per_sec(true, pending, ops);
    heap_runs.push_back(heap_eps);
    wheel_runs.push_back(wheel_eps);
    ratios.push_back(wheel_eps / heap_eps);
  }
  std::sort(heap_runs.begin(), heap_runs.end());
  std::sort(wheel_runs.begin(), wheel_runs.end());
  std::sort(ratios.begin(), ratios.end());
  TierResult r;
  r.pending = pending;
  r.heap_ev_per_sec = heap_runs[heap_runs.size() / 2];
  r.wheel_ev_per_sec = wheel_runs[wheel_runs.size() / 2];
  r.speedup = ratios[ratios.size() / 2];
  return r;
}

// ------------------------------------------------------- many-flow fabric

struct ManyFlowsResult {
  std::size_t flows = 0;
  std::uint64_t packets = 0;   // sent during the steady window
  std::uint64_t events = 0;    // scheduler events during the window
  double wall_ms = 0.0;        // steady window wall clock
  double ns_per_packet = 0.0;
  double events_per_packet = 0.0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_frees = 0;
  double allocs_per_packet = 0.0;
  std::size_t heap_capacity_growth = 0;
  std::size_t slot_capacity_growth = 0;
  std::size_t wheel_capacity_growth = 0;
  std::size_t run_capacity_growth = 0;
  std::size_t driver_bytes = 0;  // ManyFlowDriver::driver_memory_bytes()
  double bytes_per_flow = 0.0;
  // Pending events at the window's end times (slot + queue entry) per flow:
  // the scheduler's share of per-flow memory, beside the driver's.
  double scheduler_bytes_per_flow = 0.0;
};

/// Load shape for one population size. The 1k and 100k populations share one
/// aggregate; the 1M case scales aggregate and bottleneck bandwidth together
/// so its per-flow rate (hence pacing gap, hence wheel-bucket occupancy
/// pattern) matches the 100k case — the comparison then measures population
/// size, not a different event-queue shape.
struct ManyFlowsLoad {
  std::size_t n_flows = 0;
  double aggregate_bps = 40e6;
  double core_bandwidth_bps = 125e6;
  double edge_bandwidth_bps = 200e6;
};

/// N identical video flows across one PELS bottleneck sharing
/// `aggregate_bps`: per-flow rate = aggregate / N, so populations with the
/// same aggregate do the same amount of per-packet work and differ only in
/// the population the scheduler, flow table, and control tick must carry.
ManyFlowsResult run_many_flows(const ManyFlowsLoad& load, SimTime warmup, SimTime window) {
  const std::size_t n_flows = load.n_flows;
  constexpr std::int32_t kPacketBytes = 250;

  FabricConfig fc;
  fc.kind = FabricConfig::Kind::kParkingLot;
  fc.hops = 1;
  // The PELS group's WRR share of the core is pels_weight / (pels_weight +
  // internet_weight) = half, so e.g. 125 Mb/s gives a 40 Mb/s video
  // population a 62.5 Mb/s share — above the 50 Mb/s ceiling the rate clamp
  // allows. Keeping the bottleneck uncongested pins every flow at its
  // clamp, which is the point: stable per-flow rates mean stable pacing
  // gaps, so the populations present the scheduler with the same
  // steady-state workload shape and the ns/packet comparison measures
  // population size alone.
  fc.core_bandwidth_bps = load.core_bandwidth_bps;
  fc.edge_bandwidth_bps = load.edge_bandwidth_bps;
  fc.seed = 5;

  const double per_flow = load.aggregate_bps / static_cast<double>(n_flows);
  ManyFlowDriverConfig dc;
  dc.mkc.initial_rate_bps = per_flow;
  dc.mkc.min_rate_bps = per_flow / 4.0;
  // Tight rate clamp: the comparison wants constant aggregate load, so the
  // two populations differ only in size. A loose ceiling also breaks the
  // reserve contract — at 8x per-flow rate the pending timers bunch into
  // 8x fewer wheel buckets than Scheduler::reserve budgeted for.
  dc.mkc.max_rate_bps = per_flow * 1.25;
  dc.mkc.alpha_bps = per_flow * 0.05;
  dc.mkc.silence_floor_bps = per_flow / 2.0;
  // One control tick per second: at N = 100k the tick is ~N in-place
  // FlowTable updates, amortized across the window.
  dc.control_interval = kSecond;
  dc.max_rate_factor = 1.25;

  std::vector<FlowSpec> specs;
  specs.reserve(n_flows);
  for (std::size_t i = 0; i < n_flows; ++i) {
    FlowSpec s;
    s.cls = TrafficClass::kVideo;
    s.src_host = 0;
    s.dst_host = 1;
    // Starts spread over the first half of warmup: no thundering herd, and
    // the whole population is live well before the measured window.
    s.start = static_cast<SimTime>(static_cast<double>(warmup) * 0.5 *
                                   static_cast<double>(i) / static_cast<double>(n_flows));
    s.rate_bps = per_flow;
    s.packet_bytes = kPacketBytes;
    specs.push_back(s);
  }

  Fabric fabric(fc);
  ManyFlowDriver driver(fabric, std::move(specs), dc);
  fabric.reserve_runtime(n_flows);
  driver.start();

  driver.run_until(warmup);
  const HeapCounts heap0 = heap_counts();
  const std::uint64_t sent0 = driver.packets_sent();
  const std::uint64_t events0 = fabric.sim().scheduler().executed();
  const Scheduler::Stats stats0 = fabric.sim().scheduler().stats();

  const auto t0 = Clock::now();
  driver.run_until(warmup + window);
  const double wall_ms = ms_since(t0);
  const Scheduler::Stats stats1 = fabric.sim().scheduler().stats();

  ManyFlowsResult r;
  r.flows = n_flows;
  r.packets = driver.packets_sent() - sent0;
  r.events = fabric.sim().scheduler().executed() - events0;
  r.wall_ms = wall_ms;
  r.ns_per_packet = 1e6 * wall_ms / static_cast<double>(r.packets);
  r.events_per_packet = static_cast<double>(r.events) / static_cast<double>(r.packets);
  const HeapCounts heap1 = heap_counts();
  r.steady_allocs = heap1.allocs - heap0.allocs;
  r.steady_frees = heap1.frees - heap0.frees;
  r.allocs_per_packet =
      static_cast<double>(r.steady_allocs) / static_cast<double>(r.packets);
  r.heap_capacity_growth = stats1.heap_capacity - stats0.heap_capacity;
  r.slot_capacity_growth = stats1.slot_capacity - stats0.slot_capacity;
  r.wheel_capacity_growth = stats1.wheel_capacity - stats0.wheel_capacity;
  r.run_capacity_growth = stats1.run_capacity - stats0.run_capacity;
  r.driver_bytes = driver.driver_memory_bytes();
  r.bytes_per_flow = static_cast<double>(r.driver_bytes) / static_cast<double>(n_flows);
  r.scheduler_bytes_per_flow =
      static_cast<double>(stats1.pending * (stats1.slot_bytes + stats1.entry_bytes)) /
      static_cast<double>(n_flows);
  return r;
}

void print_many_flows(const char* tag, const ManyFlowsResult& r) {
  std::cout << tag << ": " << r.flows << " flows, " << r.packets << " packets in "
            << TablePrinter::fmt(r.wall_ms, 1) << " ms -> "
            << TablePrinter::fmt(r.ns_per_packet, 1) << " ns/packet, "
            << TablePrinter::fmt(r.events_per_packet, 2) << " events/packet, "
            << r.steady_allocs << " allocs (" << TablePrinter::fmt(r.allocs_per_packet, 4)
            << "/packet), pool growth +" << r.heap_capacity_growth << " heap +"
            << r.slot_capacity_growth << " slot +" << r.wheel_capacity_growth << " wheel +"
            << r.run_capacity_growth << " run, "
            << TablePrinter::fmt(r.bytes_per_flow, 1) << " driver + "
            << TablePrinter::fmt(r.scheduler_bytes_per_flow, 1) << " scheduler bytes/flow\n";
}

void json_many_flows(std::ofstream& json, const char* key, const ManyFlowsResult& r,
                     bool trailing_comma) {
  json << "    \"" << key << "\": {\n"
       << "      \"flows\": " << r.flows << ",\n"
       << "      \"packets\": " << r.packets << ",\n"
       << "      \"wall_ms\": " << r.wall_ms << ",\n"
       << "      \"ns_per_packet\": " << r.ns_per_packet << ",\n"
       << "      \"events_per_packet\": " << r.events_per_packet << ",\n"
       << "      \"steady_allocs\": " << r.steady_allocs << ",\n"
       << "      \"steady_frees\": " << r.steady_frees << ",\n"
       << "      \"allocs_per_packet\": " << r.allocs_per_packet << ",\n"
       << "      \"scheduler_heap_capacity_growth\": " << r.heap_capacity_growth << ",\n"
       << "      \"scheduler_slot_capacity_growth\": " << r.slot_capacity_growth << ",\n"
       << "      \"scheduler_wheel_capacity_growth\": " << r.wheel_capacity_growth << ",\n"
       << "      \"scheduler_run_capacity_growth\": " << r.run_capacity_growth << ",\n"
       << "      \"driver_bytes\": " << r.driver_bytes << ",\n"
       << "      \"bytes_per_flow\": " << r.bytes_per_flow << ",\n"
       << "      \"scheduler_bytes_per_flow\": " << r.scheduler_bytes_per_flow << "\n"
       << "    }" << (trailing_comma ? "," : "") << "\n";
}

// ------------------------------------------------------- sharded fat tree

struct ShardedRun {
  unsigned requested_threads = 0;
  unsigned effective_threads = 0;
  double wall_ms = 0.0;
  std::uint64_t fingerprint = 0;
  std::uint64_t packets = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t windows = 0;
};

struct ShardedMix {
  std::size_t video_flows = 0;
  std::size_t mice_flows = 0;
  std::size_t elephant_flows = 0;
};

/// One sharded run: a domain-per-pod fat tree (4 pods = 5 domains counting
/// the core) with a mixed population, driven through DomainRunner at the
/// requested thread count. Unlike the flat-cost section this bottleneck IS
/// congested — cross-pod feedback through the boundary handoff is the
/// machinery under test, and the fingerprint must come out byte-identical
/// whatever the interleaving of pod workers.
ShardedRun run_sharded(unsigned threads, const ShardedMix& mix_size, SimTime warmup,
                       SimTime window) {
  FabricConfig fc;
  fc.kind = FabricConfig::Kind::kFatTree;
  fc.pods = 4;
  fc.racks_per_pod = 2;
  fc.hosts_per_rack = 4;
  fc.domain_per_pod = true;
  fc.seed = 9;

  MixedTrafficConfig mix;
  mix.video_flows = mix_size.video_flows;
  mix.mice_flows = mix_size.mice_flows;
  mix.elephant_flows = mix_size.elephant_flows;
  mix.start_window = warmup / 2;
  mix.seed = 17;

  Fabric fabric(fc);
  ManyFlowDriverConfig dc;
  ManyFlowDriver driver(fabric, gen_mixed_traffic(fabric, mix), dc);
  fabric.reserve_runtime(driver.flow_count());
  driver.start();

  DomainRunner runner(fabric.topology(), threads);
  runner.run_until(warmup);
  const auto t0 = Clock::now();
  runner.run_until(warmup + window);

  ShardedRun r;
  r.wall_ms = ms_since(t0);
  r.requested_threads = runner.stats().requested_threads;
  r.effective_threads = runner.stats().effective_threads;
  r.fingerprint = driver.fingerprint();
  r.packets = driver.packets_sent();
  r.handoffs = runner.stats().handoffs;
  r.windows = runner.stats().windows;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage = "usage: many_flows [--smoke] [--json PATH] [--label NAME]";
  const StrictCliArgs cli(argc, argv, {"smoke"}, {"json", "label"});
  const bool smoke = cli.has("smoke");
  const std::string json_path = cli.get_string("json", "BENCH_manyflows.json");
  const std::string label = cli.get_string("label", "now");
  if (cli.reject("many_flows", kUsage)) return 2;

  print_banner(std::cout, "scheduler tiers: steady-state churn, wheel vs heap");
  const std::uint64_t churn_ops = smoke ? 300'000 : 2'000'000;
  const int churn_reps = smoke ? 1 : 5;
  const std::size_t tier_sizes[] = {1'000, 100'000, 1'000'000};
  std::vector<TierResult> tiers;
  TablePrinter tier_table({"pending", "heap Mev/s", "wheel Mev/s", "speedup"});
  for (const std::size_t pending : tier_sizes) {
    tiers.push_back(measure_tier(pending, churn_ops, churn_reps));
    const TierResult& t = tiers.back();
    tier_table.add_row({std::to_string(t.pending), TablePrinter::fmt(t.heap_ev_per_sec / 1e6, 2),
                        TablePrinter::fmt(t.wheel_ev_per_sec / 1e6, 2),
                        TablePrinter::fmt(t.speedup, 2)});
  }
  tier_table.print(std::cout);

  print_banner(std::cout, "many flows: flat per-packet cost, 1k / 100k / 1M PELS sources");
  // Warmup must outlast the rate-clamp pin-in (a few control epochs) plus a
  // full wheel level-1 wrap (~8.6 s): bucket storage reaches steady capacity
  // only once the rotation has touched every bucket at peak load, and the
  // window's zero-growth assertion needs that settled.
  const SimTime warmup = 13 * kSecond;
  const SimTime window = (smoke ? 4 : 20) * kSecond;
  const int reps = smoke ? 1 : 3;
  // The 1k/100k pair shares one aggregate; 1M scales aggregate and
  // bottleneck bandwidth 10x so per-flow gaps (hence the wheel occupancy
  // shape) match the 100k case. The WRR share of 1.25 Gb/s stays above the
  // 500 Mb/s clamp ceiling, so rates still pin and the load stays constant.
  const ManyFlowsLoad small_load{1'000, 40e6, 125e6, 200e6};
  const ManyFlowsLoad large_load{100'000, 40e6, 125e6, 200e6};
  const ManyFlowsLoad huge_load{1'000'000, 400e6, 1.25e9, 2e9};
  // Interleave the populations and keep per-size medians by wall time, as
  // micro_pipeline does for its A/B runs.
  std::vector<ManyFlowsResult> small_runs;
  std::vector<ManyFlowsResult> large_runs;
  std::vector<ManyFlowsResult> huge_runs;
  for (int r = 0; r < reps; ++r) {
    small_runs.push_back(run_many_flows(small_load, warmup, window));
    large_runs.push_back(run_many_flows(large_load, warmup, window));
    huge_runs.push_back(run_many_flows(huge_load, warmup, window));
  }
  const auto by_wall = [](const ManyFlowsResult& a, const ManyFlowsResult& b) {
    return a.wall_ms < b.wall_ms;
  };
  std::sort(small_runs.begin(), small_runs.end(), by_wall);
  std::sort(large_runs.begin(), large_runs.end(), by_wall);
  std::sort(huge_runs.begin(), huge_runs.end(), by_wall);
  const ManyFlowsResult& small = small_runs[small_runs.size() / 2];
  const ManyFlowsResult& large = large_runs[large_runs.size() / 2];
  const ManyFlowsResult& huge = huge_runs[huge_runs.size() / 2];
  const double cost_ratio = large.ns_per_packet / small.ns_per_packet;
  const double huge_cost_ratio = huge.ns_per_packet / small.ns_per_packet;
  // Driver-state budget per flow (see DESIGN.md "Sharded population
  // drivers"): 64 B FlowRt + 8 B start time + 57 B FlowTable columns (video
  // flows only) + 16 B SinkTable cell + 4 B shard membership = ~149 B, with
  // slack for allocator rounding and mixes heavier than all-video.
  constexpr double kBytesPerFlowBudget = 256.0;
  print_many_flows("  1k", small);
  print_many_flows("100k", large);
  print_many_flows("  1M", huge);
  std::cout << "cost ratio (100k / 1k) = " << TablePrinter::fmt(cost_ratio, 3)
            << ", (1M / 1k) = " << TablePrinter::fmt(huge_cost_ratio, 3) << "\n";

  print_banner(std::cout, "sharded fat tree: DomainRunner thread sweep");
  const ShardedMix sharded_mix = smoke ? ShardedMix{500, 200, 4} : ShardedMix{2'000, 400, 8};
  const SimTime sharded_warmup = 2 * kSecond;
  const SimTime sharded_window = (smoke ? 3 : 8) * kSecond;
  const unsigned hardware = std::thread::hardware_concurrency();
  const unsigned thread_sweep[] = {1, 2, 8};
  std::vector<ShardedRun> sharded_runs;
  TablePrinter sharded_table(
      {"threads", "workers", "wall ms", "speedup", "per-worker", "handoffs"});
  for (const unsigned t : thread_sweep) {
    sharded_runs.push_back(run_sharded(t, sharded_mix, sharded_warmup, sharded_window));
    const ShardedRun& r = sharded_runs.back();
    const double speedup = sharded_runs.front().wall_ms / r.wall_ms;
    const double per_worker = speedup / static_cast<double>(r.effective_threads);
    sharded_table.add_row({std::to_string(r.requested_threads),
                           std::to_string(r.effective_threads),
                           TablePrinter::fmt(r.wall_ms, 1), TablePrinter::fmt(speedup, 2),
                           TablePrinter::fmt(per_worker, 2), std::to_string(r.handoffs)});
  }
  sharded_table.print(std::cout);
  bool sharded_byte_identical = true;
  for (const ShardedRun& r : sharded_runs) {
    if (r.fingerprint != sharded_runs.front().fingerprint ||
        r.packets != sharded_runs.front().packets) {
      sharded_byte_identical = false;
    }
  }
  std::cout << "byte-identical across thread counts: "
            << (sharded_byte_identical ? "yes" : "NO") << " (hw=" << hardware << ", "
            << "requested 8 clamps to min(threads, domains, hw))\n";

  // Schema v1 (tools/bench_compare.py gates on it):
  // scheduler_tiers[].{pending,heap_ev_per_sec,wheel_ev_per_sec,speedup} and
  // many_flows.{small,large,cost_ratio}. Additions are fine; renames or
  // removals bump the version and bench_compare.py together.
  std::ofstream json(json_path, std::ios::trunc);
  json << "{\n"
       << "  \"schema_version\": 1,\n"
       << "  \"bench\": \"many_flows\",\n"
       << "  \"label\": \"" << label << "\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"scheduler_tiers\": [\n";
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    json << "    {\"pending\": " << tiers[i].pending
         << ", \"heap_ev_per_sec\": " << tiers[i].heap_ev_per_sec
         << ", \"wheel_ev_per_sec\": " << tiers[i].wheel_ev_per_sec
         << ", \"speedup\": " << tiers[i].speedup << "}"
         << (i + 1 < tiers.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"many_flows\": {\n"
       << "    \"aggregate_bps\": 40000000,\n"
       << "    \"huge_aggregate_bps\": 400000000,\n"
       << "    \"packet_bytes\": 250,\n"
       << "    \"sim_warmup_s\": " << to_seconds(warmup) << ",\n"
       << "    \"sim_window_s\": " << to_seconds(window) << ",\n"
       << "    \"reps\": " << reps << ",\n"
       << "    \"bytes_per_flow_budget\": " << kBytesPerFlowBudget << ",\n";
  json_many_flows(json, "small", small, /*trailing_comma=*/true);
  json_many_flows(json, "large", large, /*trailing_comma=*/true);
  json_many_flows(json, "huge", huge, /*trailing_comma=*/true);
  json << "    \"cost_ratio\": " << cost_ratio << ",\n"
       << "    \"huge_cost_ratio\": " << huge_cost_ratio << "\n"
       << "  },\n"
       << "  \"sharded\": {\n"
       << "    \"topology\": \"fat_tree pods=4 racks=2 hosts=4 domain_per_pod\",\n"
       << "    \"video_flows\": " << sharded_mix.video_flows << ",\n"
       << "    \"mice_flows\": " << sharded_mix.mice_flows << ",\n"
       << "    \"elephant_flows\": " << sharded_mix.elephant_flows << ",\n"
       << "    \"sim_warmup_s\": " << to_seconds(sharded_warmup) << ",\n"
       << "    \"sim_window_s\": " << to_seconds(sharded_window) << ",\n"
       << "    \"hardware_concurrency\": " << hardware << ",\n"
       << "    \"byte_identical\": " << (sharded_byte_identical ? "true" : "false") << ",\n"
       << "    \"oversubscription_note\": \"effective workers = min(threads, domains, "
          "hardware); requested counts above that run clamped, so their speedup is "
          "reported against the clamped worker count\",\n"
       << "    \"runs\": [\n";
  for (std::size_t i = 0; i < sharded_runs.size(); ++i) {
    const ShardedRun& r = sharded_runs[i];
    const double speedup = sharded_runs.front().wall_ms / r.wall_ms;
    const double per_worker = speedup / static_cast<double>(r.effective_threads);
    json << "      {\"requested_threads\": " << r.requested_threads
         << ", \"effective_threads\": " << r.effective_threads
         << ", \"wall_ms\": " << r.wall_ms << ", \"speedup_vs_serial\": " << speedup
         << ", \"per_worker_speedup\": " << per_worker << ", \"packets\": " << r.packets
         << ", \"handoffs\": " << r.handoffs << ", \"windows\": " << r.windows << "}"
         << (i + 1 < sharded_runs.size() ? "," : "") << "\n";
  }
  json << "    ]\n"
       << "  }\n}\n";
  json.close();
  std::cout << "\nwrote " << json_path << "\n";

  // The deterministic invariants are hard failures here, not just gate
  // inputs (the JSON above is still written so CI keeps the failing
  // artifact). Timing gates (cost ratios, shard scaling) live in
  // tools/bench_compare.py, where single-core runners can be skipped with a
  // notice; everything below is machine-independent.
  //
  // Zero growth at EVERY size: a pool that grows mid-window means
  // reserve_runtime stopped covering the population, and every later number
  // is measuring realloc. The wheel is included — spare-pool circulation
  // (takeover on concentration, park on drain) must conserve capacity.
  int failures = 0;
  const struct { const char* tag; const ManyFlowsResult* r; } sizes[] = {
      {"1k", &small}, {"100k", &large}, {"1M", &huge}};
  for (const auto& s : sizes) {
    if (s.r->heap_capacity_growth != 0 || s.r->slot_capacity_growth != 0 ||
        s.r->wheel_capacity_growth != 0 || s.r->run_capacity_growth != 0) {
      std::cerr << "FATAL: scheduler pools grew during the steady window at N=" << s.tag
                << " (+heap " << s.r->heap_capacity_growth << " +slot "
                << s.r->slot_capacity_growth << " +wheel " << s.r->wheel_capacity_growth
                << " +run " << s.r->run_capacity_growth << ")\n";
      ++failures;
    }
    if (s.r->steady_allocs != 0) {
      std::cerr << "FATAL: steady state allocates at N=" << s.tag << " ("
                << s.r->steady_allocs << " allocs, " << s.r->allocs_per_packet
                << "/packet; budget 0)\n";
      ++failures;
    }
    if (s.r->bytes_per_flow > kBytesPerFlowBudget) {
      std::cerr << "FATAL: driver footprint " << s.r->bytes_per_flow
                << " bytes/flow at N=" << s.tag << " exceeds the " << kBytesPerFlowBudget
                << " budget\n";
      ++failures;
    }
  }
  if (!sharded_byte_identical) {
    std::cerr << "FATAL: sharded fat-tree end state diverged across DomainRunner thread "
                 "counts (fingerprints ";
    for (const ShardedRun& r : sharded_runs) std::cerr << r.fingerprint << " ";
    std::cerr << ")\n";
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
