// End-to-end pipeline microbench: simulated packets/sec through the full
// source -> queue -> link -> router -> sink path, plus SweepRunner scaling.
//
// Three measurements, written to BENCH_pipeline.json (schema v1, gated in CI
// by tools/bench_compare.py) and EXPERIMENTS.md:
//   1. pipeline: wall-clock for a 4-flow dumbbell run; reports data
//      packets/sec delivered end to end and scheduler events/sec. This is
//      the number the Packet memory diet (boxed AckInfo, move-only hot
//      path) moves. Runs are interleaved with telemetry-enabled twins to
//      measure the sampler overhead (budget ≤ 2%, DESIGN.md "Telemetry")
//      and assert telemetry observes without perturbing delivery.
//   2. sweep scaling: an 8-point ablation-style sweep executed by
//      SweepRunner at 1/2/4/8 threads; reports wall-clock per thread count
//      and asserts the merged CSV is byte-identical to the serial run (the
//      determinism contract, see DESIGN.md "Parallel experiments").
//   3. alloc probe: steady-state heap traffic on a 3-hop DropTail chain
//      (expected: zero).
//
// Usage: micro_pipeline [--smoke] [--json PATH] [--label NAME]
//   --smoke shortens simulated durations so CI sanitizer jobs can afford it.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/domain_runner.h"
#include "exp/sweep.h"
#include "net/topology.h"
#include "pels/scenario.h"
#include "queue/drop_tail.h"
#include "sim/timer.h"
#include "util/cli.h"
#include "util/heap_count.h"
#include "util/table.h"

using namespace pels;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct PipelineResult {
  double wall_ms = 0.0;
  std::uint64_t data_packets = 0;
  std::uint64_t events = 0;
};

/// One full dumbbell run; returns wall time and end-to-end delivery counts.
/// With `telemetry` the full instrument set is registered and sampled every
/// 100 ms — the A/B comparison against plain runs measures the telemetry
/// overhead the ≤ 2% budget (DESIGN.md "Telemetry") is about.
PipelineResult run_pipeline(SimTime duration, bool telemetry) {
  ScenarioConfig cfg;
  cfg.pels_flows = 4;
  cfg.tcp_flows = 2;
  cfg.seed = 3;
  if (telemetry) {
    cfg.telemetry.enabled = true;
    cfg.telemetry.period = from_millis(100);
    cfg.telemetry.max_samples =
        static_cast<std::size_t>(duration / cfg.telemetry.period) + 16;
  }
  const auto t0 = Clock::now();
  DumbbellScenario s(cfg);
  s.run_until(duration);
  s.finish();
  PipelineResult r;
  r.wall_ms = ms_since(t0);
  for (int i = 0; i < cfg.pels_flows; ++i)
    for (std::size_t c = 0; c < kNumColors; ++c)
      r.data_packets += s.sink(i).packets_received(static_cast<Color>(c));
  r.events = s.sim().scheduler().executed();
  return r;
}

/// Steady-state allocation probe: a 3-hop DropTail chain (host -> router ->
/// router -> host) fed at exactly the link rate, so every subsystem this
/// bench guards is on the path — scheduler slot pool, inplace callbacks,
/// link transmit pipeline, DropTail ring, routing — and nothing else (no
/// samplers, no ACKs, no series growth). After warm-up the expectation is
/// literally zero heap traffic and one coalesced pipeline event per packet
/// per hop (plus the pacing timer's one event per packet, subtracted out).
struct AllocProbeResult {
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_frees = 0;
  std::uint64_t packets = 0;  // delivered end-to-end during the window
  int hops = 3;
  double allocs_per_packet = 0.0;
  double events_per_packet_per_hop = 0.0;
  std::size_t heap_capacity_growth = 0;  // scheduler vector growth mid-run
  std::size_t slot_capacity_growth = 0;
};

AllocProbeResult run_alloc_probe(SimTime warmup, SimTime window) {
  Simulation sim(1);
  Topology topo(sim);
  Host& src = topo.add_host("src");
  Router& r1 = topo.add_router("r1");
  Router& r2 = topo.add_router("r2");
  Host& dst = topo.add_host("dst");
  const double bps = 10e6;
  const QueueFactory dt = [](double) { return std::make_unique<DropTailQueue>(256); };
  Link& last = [&]() -> Link& {
    topo.add_link(src, r1, bps, 2 * kMillisecond, dt);
    topo.add_link(r1, r2, bps, 2 * kMillisecond, dt);
    return topo.add_link(r2, dst, bps, 2 * kMillisecond, dt);
  }();
  topo.compute_routes();
  topo.reserve_runtime(1);

  const std::int32_t packet_bytes = 1000;
  std::uint64_t uid = 0;
  PeriodicTimer pacer(sim.scheduler(), transmission_time(packet_bytes, bps), [&] {
    Packet pkt;
    pkt.uid = ++uid;
    pkt.flow = 7;
    pkt.seq = uid;
    pkt.size_bytes = packet_bytes;
    pkt.src = src.id();
    pkt.dst = dst.id();
    pkt.created_at = sim.now();
    src.send(std::move(pkt));
  });
  pacer.start();

  sim.run_until(warmup);
  const HeapCounts heap0 = heap_counts();
  const std::uint64_t events0 = sim.scheduler().executed();
  const std::uint64_t delivered0 = last.packets_delivered();
  const Scheduler::Stats stats0 = sim.scheduler().stats();

  sim.run_until(warmup + window);
  const Scheduler::Stats stats1 = sim.scheduler().stats();

  AllocProbeResult r;
  const HeapCounts heap1 = heap_counts();
  r.steady_allocs = heap1.allocs - heap0.allocs;
  r.steady_frees = heap1.frees - heap0.frees;
  r.packets = last.packets_delivered() - delivered0;
  const std::uint64_t events = sim.scheduler().executed() - events0;
  // The pacer contributes exactly one event per injected packet; the rest is
  // the link pipelines.
  const double link_events = static_cast<double>(events) - static_cast<double>(r.packets);
  r.allocs_per_packet = static_cast<double>(r.steady_allocs) / static_cast<double>(r.packets);
  r.events_per_packet_per_hop = link_events / (static_cast<double>(r.packets) * r.hops);
  r.heap_capacity_growth = stats1.heap_capacity - stats0.heap_capacity;
  r.slot_capacity_growth = stats1.slot_capacity - stats0.slot_capacity;
  return r;
}

/// The 8-point sweep used for the scaling measurement: p_thr x seed grid,
/// every point an independent scenario. Returns the merged CSV.
std::string run_sweep(unsigned threads, SimTime duration, double* wall_ms) {
  std::vector<std::function<SweepOutput()>> tasks;
  for (double p_thr : {0.65, 0.75, 0.85, 0.95}) {
    for (std::uint64_t seed : {1ULL, 2ULL}) {
      tasks.push_back([p_thr, seed, duration] {
        ScenarioConfig cfg;
        cfg.pels_flows = 2;
        cfg.tcp_flows = 1;
        cfg.seed = seed;
        cfg.source.gamma.p_thr = p_thr;
        DumbbellScenario s(cfg);
        s.run_until(duration);
        s.finish();
        SweepOutput out;
        out.rows.push_back(
            {TablePrinter::fmt(p_thr, 2), std::to_string(seed),
             TablePrinter::fmt(s.source(0).rate_series().mean_in(duration / 2, duration) / 1e3, 1),
             TablePrinter::fmt(s.sink(0).mean_utility(), 4),
             TablePrinter::fmt(s.loss_series(Color::kRed).mean_in(duration / 2, duration), 4)});
        return out;
      });
    }
  }
  TablePrinter table({"p_thr", "seed", "rate (kb/s)", "utility", "red loss"});
  SweepRunner runner(threads);
  const auto t0 = Clock::now();
  run_to_table(runner, std::move(tasks), table);
  *wall_ms = ms_since(t0);
  std::ostringstream csv;
  table.print_csv(csv);
  return csv.str();
}

/// Intra-scenario parallel DES measurement: a two-domain chain (the domain
/// boundary at the middle link) run through DomainRunner at 1 worker and at
/// one worker per domain. Reports window/handoff counts and asserts the
/// delivered-packet trace is identical — the conservative-lookahead
/// determinism contract, measured (not just unit-tested) on every bench run.
struct ParallelDesResult {
  double wall_ms_serial = 0.0;
  double wall_ms_parallel = 0.0;
  unsigned effective_threads = 0;
  double lookahead_ms = 0.0;
  std::uint64_t windows = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t packets = 0;
  bool identical = false;
};

ParallelDesResult run_parallel_des(SimTime duration) {
  struct Run {
    std::uint64_t delivered = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t windows = 0;
    unsigned effective = 0;
    double lookahead_ms = 0.0;
    double wall_ms = 0.0;
  };
  const auto one = [duration](unsigned threads) {
    Simulation near_sim(11);
    Simulation far_sim(11);
    Topology topo(near_sim);
    const int far = topo.add_domain(far_sim);
    Host& src = topo.add_host("src");
    Router& r1 = topo.add_router("r1");
    Router& r2 = topo.add_router("r2", far);
    Host& dst = topo.add_host("dst", far);
    const double bps = 20e6;
    const QueueFactory dt = [](double) { return std::make_unique<DropTailQueue>(256); };
    topo.add_link(src, r1, bps, kMillisecond, dt);
    topo.add_link(r1, r2, bps, 10 * kMillisecond, dt);  // the boundary
    Link& last = topo.add_link(r2, dst, bps, kMillisecond, dt);
    topo.compute_routes();
    topo.reserve_runtime(1);
    const std::int32_t packet_bytes = 1000;
    std::uint64_t uid = 0;
    PeriodicTimer pacer(near_sim.scheduler(), transmission_time(packet_bytes, bps), [&] {
      Packet pkt;
      pkt.uid = ++uid;
      pkt.flow = 7;
      pkt.seq = uid;
      pkt.size_bytes = packet_bytes;
      pkt.src = src.id();
      pkt.dst = dst.id();
      pkt.created_at = near_sim.now();
      src.send(std::move(pkt));
    });
    pacer.start();
    const auto t0 = Clock::now();
    DomainRunner runner(topo, threads);
    runner.run_until(duration);
    Run r;
    r.wall_ms = ms_since(t0);
    r.delivered = last.packets_delivered();
    const DomainRunner::Stats st = runner.stats();
    r.handoffs = st.handoffs;
    r.windows = st.windows;
    r.effective = st.effective_threads;
    r.lookahead_ms = to_millis(st.lookahead);
    return r;
  };
  const Run serial = one(1);
  const Run parallel = one(2);
  ParallelDesResult r;
  r.wall_ms_serial = serial.wall_ms;
  r.wall_ms_parallel = parallel.wall_ms;
  r.effective_threads = parallel.effective;
  r.lookahead_ms = parallel.lookahead_ms;
  r.windows = parallel.windows;
  r.handoffs = parallel.handoffs;
  r.packets = parallel.delivered;
  r.identical = serial.delivered == parallel.delivered &&
                serial.handoffs == parallel.handoffs && serial.windows == parallel.windows;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage = "usage: micro_pipeline [--smoke] [--json PATH] [--label NAME]";
  const StrictCliArgs cli(argc, argv, {"smoke"}, {"json", "label"});
  const bool smoke = cli.has("smoke");
  const std::string json_path = cli.get_string("json", "BENCH_pipeline.json");
  const std::string label = cli.get_string("label", "now");
  if (cli.reject("micro_pipeline", kUsage)) return 2;
  const SimTime pipeline_duration = (smoke ? 2 : 30) * kSecond;
  const SimTime sweep_duration = (smoke ? 1 : 10) * kSecond;
  const int reps = smoke ? 1 : 5;

  print_banner(std::cout, "micro_pipeline: end-to-end packets/sec (4-flow dumbbell)");
  // Interleaved A/B: alternate plain and telemetry-enabled runs so clock
  // drift and cache state hit both modes equally; compare the medians.
  std::vector<PipelineResult> runs;
  std::vector<PipelineResult> tel_runs;
  for (int r = 0; r < reps; ++r) {
    runs.push_back(run_pipeline(pipeline_duration, /*telemetry=*/false));
    tel_runs.push_back(run_pipeline(pipeline_duration, /*telemetry=*/true));
  }
  const auto by_wall = [](const PipelineResult& a, const PipelineResult& b) {
    return a.wall_ms < b.wall_ms;
  };
  std::sort(runs.begin(), runs.end(), by_wall);
  std::sort(tel_runs.begin(), tel_runs.end(), by_wall);
  const PipelineResult& med = runs[runs.size() / 2];
  const PipelineResult& tel_med = tel_runs[tel_runs.size() / 2];
  const double pkts_per_sec = 1e3 * static_cast<double>(med.data_packets) / med.wall_ms;
  const double events_per_sec = 1e3 * static_cast<double>(med.events) / med.wall_ms;
  const double events_per_data_packet =
      static_cast<double>(med.events) / static_cast<double>(med.data_packets);
  const double tel_pkts_per_sec =
      1e3 * static_cast<double>(tel_med.data_packets) / tel_med.wall_ms;
  // A negative raw overhead only means the telemetry twin won the coin toss
  // against run-to-run noise; clamp the reported fraction at zero and report
  // the measurement's own noise floor (wall-clock spread across the plain
  // reps) alongside, so "overhead 0%" can be read as "below the noise".
  const double tel_overhead_frac_raw = 1.0 - tel_pkts_per_sec / pkts_per_sec;
  const double tel_overhead_frac = std::max(0.0, tel_overhead_frac_raw);
  const double noise_floor_frac =
      (runs.back().wall_ms - runs.front().wall_ms) / med.wall_ms;
  std::cout << "sizeof(Packet) = " << sizeof(Packet) << " bytes\n"
            << "median wall    = " << TablePrinter::fmt(med.wall_ms, 1) << " ms for "
            << med.data_packets << " delivered data packets\n"
            << "throughput     = " << TablePrinter::fmt(pkts_per_sec / 1e3, 1)
            << " k data pkts/s, " << TablePrinter::fmt(events_per_sec / 1e6, 2)
            << " M events/s (" << TablePrinter::fmt(events_per_data_packet, 2)
            << " events per delivered data packet, timers and acks included)\n"
            << "with telemetry = " << TablePrinter::fmt(tel_pkts_per_sec / 1e3, 1)
            << " k data pkts/s (overhead "
            << TablePrinter::fmt(100.0 * tel_overhead_frac, 2) << "%, budget 2%, noise floor "
            << TablePrinter::fmt(100.0 * noise_floor_frac, 2) << "%)\n";
  // Telemetry must observe, not perturb: the same scenario with sampling on
  // delivers exactly the same packets.
  if (tel_med.data_packets != med.data_packets) {
    std::cerr << "FATAL: telemetry perturbed the simulation (" << tel_med.data_packets
              << " data packets vs " << med.data_packets << " plain)\n";
    return 1;
  }

  print_banner(std::cout, "steady-state allocation probe (3-hop DropTail chain)");
  const AllocProbeResult probe =
      run_alloc_probe((smoke ? 1 : 2) * kSecond, (smoke ? 2 : 8) * kSecond);
  std::cout << "steady window  = " << probe.packets << " packets end to end over "
            << probe.hops << " hops\n"
            << "heap traffic   = " << probe.steady_allocs << " allocs, " << probe.steady_frees
            << " frees  ->  " << TablePrinter::fmt(probe.allocs_per_packet, 4)
            << " allocs/packet\n"
            << "link events    = " << TablePrinter::fmt(probe.events_per_packet_per_hop, 4)
            << " per packet per hop (pacing timer subtracted)\n"
            << "scheduler pool = +" << probe.heap_capacity_growth << " heap, +"
            << probe.slot_capacity_growth << " slot capacity growth mid-run\n";

  print_banner(std::cout, "SweepRunner scaling (8-point sweep, byte-identical check)");
  const unsigned hw = SweepRunner::hardware_threads();
  double serial_ms = 0.0;
  const std::string serial_csv = run_sweep(1, sweep_duration, &serial_ms);
  struct Scale {
    unsigned threads;            // requested
    unsigned effective_threads;  // after the hardware clamp
    bool oversubscribed;         // requested > hardware: annotation for the gate
    double wall_ms;
    bool identical;
  };
  std::vector<Scale> scaling{{1, 1, false, serial_ms, true}};
  for (unsigned t : {2u, 4u, 8u}) {
    double ms = 0.0;
    const std::string csv = run_sweep(t, sweep_duration, &ms);
    scaling.push_back({t, std::min(t, hw), t > hw, ms, csv == serial_csv});
  }
  TablePrinter table({"threads", "effective", "wall (ms)", "speedup", "csv identical"});
  for (const Scale& sc : scaling) {
    // Oversubscribed entries (requested > hardware) are annotated, not
    // gated: the clamp makes them duplicates of the at-hardware point, and
    // judging "scaling" on a box that cannot scale produced exactly the
    // phantom regression this bench once reported.
    table.add_row({std::to_string(sc.threads),
                   std::to_string(sc.effective_threads) + (sc.oversubscribed ? "*" : ""),
                   TablePrinter::fmt(sc.wall_ms, 1), TablePrinter::fmt(serial_ms / sc.wall_ms, 2),
                   sc.identical ? "yes" : "NO"});
    if (!sc.identical) {
      std::cerr << "FATAL: threads=" << sc.threads << " CSV differs from serial run\n";
      return 1;
    }
  }
  table.print(std::cout);
  std::cout << "(hardware threads available: " << hw
            << "; * = requested count clamped to hardware)\n";

  print_banner(std::cout, "intra-scenario parallel DES (2-domain chain, DomainRunner)");
  const ParallelDesResult pdes = run_parallel_des(sweep_duration);
  std::cout << "lookahead      = " << TablePrinter::fmt(pdes.lookahead_ms, 1) << " ms, "
            << pdes.windows << " windows, " << pdes.handoffs << " cross-domain handoffs for "
            << pdes.packets << " delivered packets\n"
            << "wall           = " << TablePrinter::fmt(pdes.wall_ms_serial, 1)
            << " ms at 1 worker, " << TablePrinter::fmt(pdes.wall_ms_parallel, 1) << " ms at "
            << pdes.effective_threads << " worker(s)\n";
  if (!pdes.identical) {
    std::cerr << "FATAL: domain-partitioned run diverged across worker counts\n";
    return 1;
  }

  // Schema v1 (tools/bench_compare.py gates on it): top-level schema_version,
  // pipeline.data_pkts_per_sec as the regression metric, telemetry A/B block,
  // alloc_probe invariants, sweep_scaling identity flags. Additions are fine;
  // renames/removals bump the version and bench_compare.py together.
  std::ofstream json(json_path, std::ios::trunc);
  json << "{\n"
       << "  \"schema_version\": 1,\n"
       << "  \"bench\": \"micro_pipeline\",\n"
       << "  \"label\": \"" << label << "\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"hardware_threads\": " << hw << ",\n"
       << "  \"sizeof_packet_bytes\": " << sizeof(Packet) << ",\n"
       << "  \"pipeline\": {\n"
       << "    \"sim_seconds\": " << to_seconds(pipeline_duration) << ",\n"
       << "    \"reps\": " << reps << ",\n"
       << "    \"median_wall_ms\": " << med.wall_ms << ",\n"
       << "    \"data_packets\": " << med.data_packets << ",\n"
       << "    \"data_pkts_per_sec\": " << pkts_per_sec << ",\n"
       << "    \"events_per_sec\": " << events_per_sec << ",\n"
       << "    \"events_per_data_packet\": " << events_per_data_packet << "\n"
       << "  },\n"
       << "  \"telemetry\": {\n"
       << "    \"median_wall_ms\": " << tel_med.wall_ms << ",\n"
       << "    \"data_packets\": " << tel_med.data_packets << ",\n"
       << "    \"data_pkts_per_sec\": " << tel_pkts_per_sec << ",\n"
       << "    \"overhead_frac\": " << tel_overhead_frac << ",\n"
       << "    \"overhead_frac_raw\": " << tel_overhead_frac_raw << ",\n"
       << "    \"noise_floor_frac\": " << noise_floor_frac << "\n"
       << "  },\n"
       << "  \"alloc_probe\": {\n"
       << "    \"packets\": " << probe.packets << ",\n"
       << "    \"hops\": " << probe.hops << ",\n"
       << "    \"steady_allocs\": " << probe.steady_allocs << ",\n"
       << "    \"steady_frees\": " << probe.steady_frees << ",\n"
       << "    \"allocs_per_packet\": " << probe.allocs_per_packet << ",\n"
       << "    \"events_per_packet_per_hop\": " << probe.events_per_packet_per_hop << ",\n"
       << "    \"scheduler_heap_capacity_growth\": " << probe.heap_capacity_growth << ",\n"
       << "    \"scheduler_slot_capacity_growth\": " << probe.slot_capacity_growth << "\n"
       << "  },\n"
       << "  \"sweep_scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    json << "    {\"threads\": " << scaling[i].threads
         << ", \"effective_threads\": " << scaling[i].effective_threads
         << ", \"oversubscribed\": " << (scaling[i].oversubscribed ? "true" : "false")
         << ", \"wall_ms\": " << scaling[i].wall_ms
         << ", \"speedup\": " << serial_ms / scaling[i].wall_ms
         << ", \"identical_to_serial\": " << (scaling[i].identical ? "true" : "false") << "}"
         << (i + 1 < scaling.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"parallel_des\": {\n"
       << "    \"lookahead_ms\": " << pdes.lookahead_ms << ",\n"
       << "    \"windows\": " << pdes.windows << ",\n"
       << "    \"handoffs\": " << pdes.handoffs << ",\n"
       << "    \"packets\": " << pdes.packets << ",\n"
       << "    \"effective_threads\": " << pdes.effective_threads << ",\n"
       << "    \"wall_ms_serial\": " << pdes.wall_ms_serial << ",\n"
       << "    \"wall_ms_parallel\": " << pdes.wall_ms_parallel << ",\n"
       << "    \"identical_across_workers\": " << (pdes.identical ? "true" : "false") << "\n"
       << "  }\n}\n";
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
