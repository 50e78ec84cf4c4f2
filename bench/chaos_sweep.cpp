// Chaos campaign driver: randomized fault schedules vs. runtime invariants.
//
// Four measurements, written to BENCH_chaos.json (schema v1, gated in CI by
// tools/bench_compare.py) and EXPERIMENTS.md:
//   1. campaign: N seeded fault schedules (ChaosPlanGenerator) each run
//      through a monitored dumbbell scenario with abort_on_violation set.
//      Expectation: zero violations. Any violation is delta-debugged
//      (shrink_fault_plan) and written out as a replayable repro JSON.
//   2. shrinker selftest: a deliberately-injected violation (a synthetic
//      "bottleneck link must be up" check that any flap trips) is shrunk;
//      the minimized plan must still trip the same invariant and carry no
//      more events than the original. The resulting repro artifact is what
//      the CI chaos-smoke job uploads.
//   3. parallel chaos: flap/brown-out schedules applied to the boundary link
//      of a two-domain chain, run serial vs. DomainRunner — delivered
//      packets, handoffs, and windows must be identical (the determinism
//      contract must survive fault injection, not just clean runs).
//   4. monitor overhead: interleaved A/B dumbbell runs with the invariant
//      monitor off/on; overhead budget ≤ 3% (DESIGN.md §9), and the monitor
//      must observe without perturbing delivery.
//
// Usage: chaos_sweep [--smoke] [--schedules N] [--json PATH] [--label NAME]
//                    [--repro PATH]
//   --smoke shortens horizons and the campaign so CI sanitizer jobs can
//   afford it; --repro sets where the selftest/violation repro JSON goes.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "exp/domain_runner.h"
#include "exp/sweep.h"
#include "fault/chaos.h"
#include "net/topology.h"
#include "pels/scenario.h"
#include "queue/drop_tail.h"
#include "sim/invariants.h"
#include "sim/timer.h"
#include "util/cli.h"
#include "util/table.h"

using namespace pels;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

ChaosLimits campaign_limits(bool smoke) {
  ChaosLimits limits;
  limits.horizon = (smoke ? 3 : 8) * kSecond;
  limits.min_start = from_millis(200);
  limits.max_window = smoke ? from_millis(500) : kSecond;
  return limits;
}

ScenarioConfig campaign_config(std::uint64_t seed, FaultPlan plan) {
  ScenarioConfig cfg;
  cfg.pels_flows = 2;
  cfg.tcp_flows = 1;
  cfg.seed = seed;
  cfg.faults = std::move(plan);
  cfg.invariants.enabled = true;
  cfg.invariants.abort_on_violation = true;
  // Sources keep enqueueing at the bottleneck through flaps and blackouts
  // (the interface buffer stays up), so 3 s without a single arrival is a
  // genuine wedge, not a fault window.
  cfg.invariants.progress_stall_ticks = 300;
  return cfg;
}

struct CampaignResult {
  bool violated = false;
  InvariantViolation violation;
  std::uint64_t ticks = 0;
};

/// One monitored run of `plan`; fills the violation when one trips.
CampaignResult run_schedule(std::uint64_t seed, const FaultPlan& plan, SimTime horizon) {
  CampaignResult r;
  DumbbellScenario s(campaign_config(seed, plan));
  try {
    s.run_until(horizon + kSecond);
    s.invariant_monitor()->check_now();  // final sweep at quiescence
    s.finish();
  } catch (const InvariantViolationError& e) {
    r.violated = true;
    r.violation = e.violation();
  }
  r.ticks = s.invariant_monitor()->ticks();
  return r;
}

/// Replay predicate for the shrinker: does `plan` still trip the same
/// invariant on the same seed? Deterministic by the replay contract.
bool replays_violation(std::uint64_t seed, const FaultPlan& plan, SimTime horizon,
                       const std::string& invariant) {
  const CampaignResult r = run_schedule(seed, plan, horizon);
  return r.violated && r.violation.invariant == invariant;
}

// ---------------------------------------------------------------------------
// Shrinker selftest: inject a violation on purpose, minimize it, and check
// the minimized plan still reproduces. The synthetic check — "the bottleneck
// link is never down" — is false by design for any plan whose flap covers a
// monitor tick, so the harness exercises the full detect → shrink → repro
// path without depending on a real (hopefully nonexistent) bug.
// ---------------------------------------------------------------------------

std::optional<InvariantViolation> run_selftest_schedule(std::uint64_t seed,
                                                        const FaultPlan& plan,
                                                        SimTime horizon) {
  DumbbellScenario s(campaign_config(seed, plan));
  Link& bottleneck = s.topology().link(0);
  s.invariant_monitor()->add_check("selftest.link_up", [&bottleneck](std::string& detail) {
    if (!bottleneck.is_up()) {
      detail = "bottleneck link is down (selftest: deliberately violated by any flap)";
      return false;
    }
    return true;
  });
  try {
    s.run_until(horizon + kSecond);
    s.finish();
  } catch (const InvariantViolationError& e) {
    return e.violation();
  }
  return std::nullopt;
}

struct SelftestResult {
  bool found = false;                // a generated plan tripped the check
  bool shrunk_still_violates = false;
  std::size_t original_events = 0;
  std::size_t shrunk_events = 0;
  ShrinkStats shrink;
  InvariantViolation violation;
  FaultPlan shrunk_plan;
  std::uint64_t seed = 0;
};

SelftestResult run_shrinker_selftest(const ChaosLimits& limits, std::uint64_t campaign_seed) {
  SelftestResult r;
  ChaosPlanGenerator gen(limits, Rng(campaign_seed, 0x5E1F));
  FaultPlan plan;
  for (int attempt = 0; attempt < 50 && !r.found; ++attempt) {
    plan = gen.next();
    r.seed = campaign_seed + static_cast<std::uint64_t>(attempt);
    if (auto v = run_selftest_schedule(r.seed, plan, limits.horizon)) {
      r.found = true;
      r.violation = *v;
    }
  }
  if (!r.found) return r;
  r.original_events = fault_plan_event_count(plan);
  const std::uint64_t seed = r.seed;
  const SimTime horizon = limits.horizon;
  r.shrunk_plan = shrink_fault_plan(
      plan,
      [seed, horizon](const FaultPlan& candidate) {
        return run_selftest_schedule(seed, candidate, horizon).has_value();
      },
      &r.shrink);
  r.shrunk_events = fault_plan_event_count(r.shrunk_plan);
  r.shrunk_still_violates = run_selftest_schedule(seed, r.shrunk_plan, horizon).has_value();
  return r;
}

// ---------------------------------------------------------------------------
// Parallel chaos: chaos-derived flap/brown-out schedules on the boundary
// link of a two-domain chain, serial vs. DomainRunner.
// ---------------------------------------------------------------------------

struct ParallelChaosResult {
  int schedules = 0;
  bool identical = true;
  std::uint64_t packets = 0;   // delivered in the last parallel run
  std::uint64_t handoffs = 0;
  std::uint64_t windows = 0;
};

ParallelChaosResult run_parallel_chaos(std::uint64_t campaign_seed, int schedules,
                                       SimTime duration) {
  ChaosLimits limits;
  limits.horizon = duration;
  limits.min_start = from_millis(100);
  limits.max_window = std::min(from_millis(500), duration / 4);
  limits.max_restarts = 0;   // chain has no PELS queue
  limits.max_blackouts = 0;  // nor a reverse ACK path
  limits.ge_probability = 0.0;
  ChaosPlanGenerator gen(limits, Rng(campaign_seed, 0x2D0));

  struct Run {
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t windows = 0;
  };
  const auto one = [duration](const FaultPlan& plan, unsigned threads) {
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
    Link& middle = topo.add_link(r1, r2, bps, 10 * kMillisecond, dt);  // boundary
    Link& last = topo.add_link(r2, dst, bps, kMillisecond, dt);
    topo.compute_routes();
    topo.reserve_runtime(1);

    // Faults live on the boundary link, owned (and its events executed) by
    // the near domain — the hardest case for the barrier protocol.
    FaultInjector injector(near_sim);
    for (const FaultPlan::LinkFlap& flap : plan.link_flaps) injector.inject_flap(middle, flap);
    for (const FaultPlan::Brownout& b : plan.brownouts) injector.inject_brownout(middle, b);

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
    DomainRunner runner(topo, threads);
    runner.run_until(duration);
    Run r;
    r.delivered = last.packets_delivered();
    r.dropped = middle.queue().counters().total_drops();
    const DomainRunner::Stats st = runner.stats();
    r.handoffs = st.handoffs;
    r.windows = st.windows;
    return r;
  };

  ParallelChaosResult result;
  result.schedules = schedules;
  for (int i = 0; i < schedules; ++i) {
    const FaultPlan plan = gen.next();
    const Run serial = one(plan, 1);
    const Run parallel = one(plan, 2);
    if (serial.delivered != parallel.delivered || serial.dropped != parallel.dropped ||
        serial.handoffs != parallel.handoffs || serial.windows != parallel.windows) {
      result.identical = false;
      std::cerr << "FATAL: schedule " << i << " diverged: serial delivered "
                << serial.delivered << "/dropped " << serial.dropped << " vs parallel "
                << parallel.delivered << "/" << parallel.dropped << "\n";
    }
    result.packets = parallel.delivered;
    result.handoffs = parallel.handoffs;
    result.windows = parallel.windows;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Monitor overhead: interleaved A/B, same recipe as micro_pipeline's
// telemetry budget measurement.
// ---------------------------------------------------------------------------

struct OverheadRun {
  double wall_ms = 0.0;
  std::uint64_t data_packets = 0;
  std::uint64_t ticks = 0;
};

OverheadRun run_overhead_probe(SimTime duration, bool monitored) {
  ScenarioConfig cfg;
  cfg.pels_flows = 4;
  cfg.tcp_flows = 2;
  cfg.seed = 3;
  if (monitored) cfg.invariants.enabled = true;
  const auto t0 = Clock::now();
  DumbbellScenario s(cfg);
  s.run_until(duration);
  s.finish();
  OverheadRun r;
  r.wall_ms = ms_since(t0);
  for (int i = 0; i < cfg.pels_flows; ++i)
    for (std::size_t c = 0; c < kNumColors; ++c)
      r.data_packets += s.sink(i).packets_received(static_cast<Color>(c));
  if (monitored) r.ticks = s.invariant_monitor()->ticks();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: chaos_sweep [--smoke] [--schedules N] [--json PATH] [--label NAME] [--repro PATH]";
  const StrictCliArgs cli(argc, argv, {"smoke"}, {"schedules", "json", "label", "repro"});
  const bool smoke = cli.has("smoke");
  const int schedules = static_cast<int>(cli.get_int_at_least("schedules", smoke ? 24 : 200, 1));
  const std::string json_path = cli.get_string("json", "BENCH_chaos.json");
  const std::string label = cli.get_string("label", "now");
  const std::string repro_path = cli.get_string("repro", "chaos_repro.json");
  if (cli.reject("chaos_sweep", kUsage)) return 2;
  const std::uint64_t campaign_seed = 0xC405;
  const ChaosLimits limits = campaign_limits(smoke);
  SweepRunner runner;

  // -------------------------------------------------------------------
  print_banner(std::cout, "chaos campaign: " + std::to_string(schedules) +
                              " seeded fault schedules, monitored");
  // All plans are drawn up front on this thread — draw order is the replay
  // contract, and it must not depend on pool scheduling.
  ChaosPlanGenerator gen(limits, Rng(campaign_seed, 0x0C05));
  std::vector<FaultPlan> plans;
  plans.reserve(static_cast<std::size_t>(schedules));
  for (int i = 0; i < schedules; ++i) plans.push_back(gen.next());

  std::vector<std::function<CampaignResult()>> tasks;
  tasks.reserve(plans.size());
  for (int i = 0; i < schedules; ++i) {
    const FaultPlan& plan = plans[static_cast<std::size_t>(i)];
    const std::uint64_t seed = campaign_seed + static_cast<std::uint64_t>(i);
    tasks.push_back([&plan, seed, &limits] { return run_schedule(seed, plan, limits.horizon); });
  }
  const auto campaign_t0 = Clock::now();
  auto outcomes = runner.run(std::move(tasks));
  const double campaign_ms = ms_since(campaign_t0);

  int violations = 0;
  int task_errors = 0;
  std::uint64_t total_ticks = 0;
  for (int i = 0; i < schedules; ++i) {
    auto& out = outcomes[static_cast<std::size_t>(i)];
    if (!out.ok()) {
      ++task_errors;
      std::cerr << "FATAL: schedule " << i << " (seed " << campaign_seed + i
                << ") failed outside the monitor: " << out.error << "\n";
      continue;
    }
    total_ticks += out.value->ticks;
    if (!out.value->violated) continue;
    ++violations;
    const std::uint64_t seed = campaign_seed + static_cast<std::uint64_t>(i);
    const FaultPlan& plan = plans[static_cast<std::size_t>(i)];
    const std::string invariant = out.value->violation.invariant;
    std::cerr << "VIOLATION: schedule " << i << " (seed " << seed << "): " << invariant
              << " at t=" << out.value->violation.at << "ns — " << out.value->violation.detail
              << " [" << out.value->violation.context << "]\n";
    // Minimize and drop a replayable artifact next to the requested path.
    ShrinkStats shrink;
    const SimTime horizon = limits.horizon;
    const FaultPlan minimal = shrink_fault_plan(
        plan,
        [seed, horizon, &invariant](const FaultPlan& candidate) {
          return replays_violation(seed, candidate, horizon, invariant);
        },
        &shrink);
    // Campaign repros land next to the requested selftest repro path.
    const std::size_t slash = repro_path.rfind('/');
    const std::string dir = slash == std::string::npos ? "" : repro_path.substr(0, slash + 1);
    const std::string path = dir + "chaos_repro_seed" + std::to_string(seed) + ".json";
    std::ofstream repro(path, std::ios::trunc);
    write_chaos_repro_json(repro, seed, out.value->violation, minimal, shrink,
                           fault_plan_event_count(plan));
    std::cerr << "  minimized " << fault_plan_event_count(plan) << " -> "
              << fault_plan_event_count(minimal) << " events, repro written to " << path << "\n";
  }
  std::cout << schedules << " schedules, " << violations << " invariant violations, "
            << task_errors << " task errors, " << total_ticks << " monitor ticks, "
            << TablePrinter::fmt(campaign_ms, 1) << " ms wall\n";

  // -------------------------------------------------------------------
  print_banner(std::cout, "shrinker selftest (deliberately-injected violation)");
  const SelftestResult selftest = run_shrinker_selftest(limits, campaign_seed);
  if (!selftest.found || !selftest.shrunk_still_violates ||
      selftest.shrunk_events > selftest.original_events) {
    std::cerr << "FATAL: shrinker selftest failed (found=" << selftest.found
              << ", still_violates=" << selftest.shrunk_still_violates << ", events "
              << selftest.original_events << " -> " << selftest.shrunk_events << ")\n";
    return 1;
  }
  {
    std::ofstream repro(repro_path, std::ios::trunc);
    write_chaos_repro_json(repro, selftest.seed, selftest.violation, selftest.shrunk_plan,
                           selftest.shrink, selftest.original_events);
  }
  std::cout << "violation      = " << selftest.violation.invariant << " at t="
            << selftest.violation.at << "ns [" << selftest.violation.context << "]\n"
            << "shrink         = " << selftest.original_events << " -> " << selftest.shrunk_events
            << " events in " << selftest.shrink.rounds << " rounds (" << selftest.shrink.probes
            << " probes, " << selftest.shrink.accepted << " accepted)\n"
            << "repro artifact = " << repro_path << " (replays the same invariant)\n";

  // -------------------------------------------------------------------
  print_banner(std::cout, "parallel chaos (faulted boundary link, serial vs DomainRunner)");
  const ParallelChaosResult pchaos =
      run_parallel_chaos(campaign_seed, smoke ? 3 : 8, (smoke ? 2 : 5) * kSecond);
  std::cout << pchaos.schedules << " schedules: " << pchaos.packets << " delivered packets, "
            << pchaos.handoffs << " handoffs, " << pchaos.windows << " windows — "
            << (pchaos.identical ? "byte-identical across worker counts" : "DIVERGED") << "\n";

  // -------------------------------------------------------------------
  print_banner(std::cout, "invariant monitor overhead (interleaved A/B)");
  const SimTime overhead_duration = (smoke ? 2 : 20) * kSecond;
  const int reps = smoke ? 1 : 5;
  std::vector<OverheadRun> plain_runs;
  std::vector<OverheadRun> mon_runs;
  for (int r = 0; r < reps; ++r) {
    plain_runs.push_back(run_overhead_probe(overhead_duration, /*monitored=*/false));
    mon_runs.push_back(run_overhead_probe(overhead_duration, /*monitored=*/true));
  }
  const auto by_wall = [](const OverheadRun& a, const OverheadRun& b) {
    return a.wall_ms < b.wall_ms;
  };
  std::sort(plain_runs.begin(), plain_runs.end(), by_wall);
  std::sort(mon_runs.begin(), mon_runs.end(), by_wall);
  const OverheadRun& plain = plain_runs[plain_runs.size() / 2];
  const OverheadRun& mon = mon_runs[mon_runs.size() / 2];
  const double plain_pps = 1e3 * static_cast<double>(plain.data_packets) / plain.wall_ms;
  const double mon_pps = 1e3 * static_cast<double>(mon.data_packets) / mon.wall_ms;
  const double overhead_raw = 1.0 - mon_pps / plain_pps;
  const double overhead = std::max(0.0, overhead_raw);
  const double noise_floor =
      (plain_runs.back().wall_ms - plain_runs.front().wall_ms) / plain.wall_ms;
  std::cout << "plain          = " << TablePrinter::fmt(plain_pps / 1e3, 1) << " k data pkts/s\n"
            << "monitored      = " << TablePrinter::fmt(mon_pps / 1e3, 1) << " k data pkts/s ("
            << mon.ticks << " ticks; overhead " << TablePrinter::fmt(100.0 * overhead, 2)
            << "%, budget 3%, noise floor " << TablePrinter::fmt(100.0 * noise_floor, 2)
            << "%)\n";
  if (mon.data_packets != plain.data_packets) {
    std::cerr << "FATAL: invariant monitor perturbed the simulation (" << mon.data_packets
              << " data packets vs " << plain.data_packets << " plain)\n";
    return 1;
  }

  // -------------------------------------------------------------------
  // Schema v1 (tools/bench_compare.py gates on it): campaign.violations == 0,
  // shrink_selftest.shrunk_still_violates, parallel_chaos.identical,
  // monitor_overhead.overhead_frac within budget.
  std::ofstream json(json_path, std::ios::trunc);
  json << "{\n"
       << "  \"schema_version\": 1,\n"
       << "  \"bench\": \"chaos_sweep\",\n"
       << "  \"label\": \"" << label << "\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"campaign\": {\n"
       << "    \"schedules\": " << schedules << ",\n"
       << "    \"seed\": " << campaign_seed << ",\n"
       << "    \"violations\": " << violations << ",\n"
       << "    \"task_errors\": " << task_errors << ",\n"
       << "    \"monitor_ticks\": " << total_ticks << ",\n"
       << "    \"wall_ms\": " << campaign_ms << "\n"
       << "  },\n"
       << "  \"shrink_selftest\": {\n"
       << "    \"invariant\": \"" << selftest.violation.invariant << "\",\n"
       << "    \"original_events\": " << selftest.original_events << ",\n"
       << "    \"shrunk_events\": " << selftest.shrunk_events << ",\n"
       << "    \"probes\": " << selftest.shrink.probes << ",\n"
       << "    \"accepted\": " << selftest.shrink.accepted << ",\n"
       << "    \"rounds\": " << selftest.shrink.rounds << ",\n"
       << "    \"shrunk_still_violates\": " << (selftest.shrunk_still_violates ? "true" : "false")
       << "\n"
       << "  },\n"
       << "  \"parallel_chaos\": {\n"
       << "    \"schedules\": " << pchaos.schedules << ",\n"
       << "    \"packets\": " << pchaos.packets << ",\n"
       << "    \"handoffs\": " << pchaos.handoffs << ",\n"
       << "    \"windows\": " << pchaos.windows << ",\n"
       << "    \"identical_across_workers\": " << (pchaos.identical ? "true" : "false") << "\n"
       << "  },\n"
       << "  \"monitor_overhead\": {\n"
       << "    \"reps\": " << reps << ",\n"
       << "    \"plain_pkts_per_sec\": " << plain_pps << ",\n"
       << "    \"monitored_pkts_per_sec\": " << mon_pps << ",\n"
       << "    \"monitor_ticks\": " << mon.ticks << ",\n"
       << "    \"overhead_frac\": " << overhead << ",\n"
       << "    \"overhead_frac_raw\": " << overhead_raw << ",\n"
       << "    \"noise_floor_frac\": " << noise_floor << "\n"
       << "  }\n}\n";
  std::cout << "\nwrote " << json_path << "\n";

  const bool ok = violations == 0 && task_errors == 0 && pchaos.identical;
  if (!ok) {
    std::cerr << "FATAL: chaos harness found failures (see above)\n";
    return 1;
  }
  return 0;
}
