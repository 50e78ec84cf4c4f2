// Canned simulation scenario: the paper's bar-bell topology (Fig. 6).
//
//   src_0..N  --10mb/s-->  R1  --4mb/s (PELS AQM)-->  R2  --10mb/s--> dst_0..N
//   tcp_0..M  --10mb/s-->  R1                         R2  --10mb/s--> tsink_0..M
//
// N PELS video flows and M greedy TCP cross-traffic flows share the
// bottleneck; WRR gives the Internet queue its configured share (50% in
// §6.1). The scenario wires topology, agents, and periodic samplers for the
// per-colour loss rates at the bottleneck, and exposes everything the bench
// harnesses need.
//
// `downstream_bps` chains further PELS hops R2 ==> R3 ==> ... after the
// first, and `hop_spans` says which hops each video flow crosses. That is the
// parking lot of paper §5.2 (see parking_lot_config):
//
//   long flows:   L  -> R1 ==hop 0==> R2 ==hop 1==> R3 -> sink
//   cross hop 1:  X1 -> R1 ==hop 0==> R2 -> sink
//   cross hop 2:  X2 -> R2 ==hop 1==> R3 -> sink
//
// Each router overrides the in-band label only with a larger loss, so a flow
// crossing several hops follows the most congested one (max-min) and
// re-binds when the bottleneck moves.
#pragma once

#include <memory>
#include <vector>

#include "cc/flow_table.h"
#include "cc/mkc.h"
#include "cc/tcp_like.h"
#include "fault/fault_plan.h"
#include "net/topology.h"
#include "queue/best_effort.h"
#include "queue/pels_queue.h"
#include "queue/rem.h"
#include "pels/pels_sink.h"
#include "pels/pels_source.h"
#include "sim/invariants.h"
#include "sim/timer.h"
#include "telemetry/sampler.h"
#include "video/rd_model.h"

namespace pels {

enum class BottleneckKind {
  kPels,        // priority AQM (the paper's contribution)
  kBestEffort,  // colour-blind random-drop comparator (§6.5)
  kRem          // marking-based REM comparator (§2.2 ref [20])
};

struct ScenarioConfig {
  BottleneckKind bottleneck = BottleneckKind::kPels;
  int pels_flows = 2;
  /// Start time per flow; missing entries start at 0.
  std::vector<SimTime> start_times;
  int tcp_flows = 1;

  double bottleneck_bps = 4e6;  // §6.1
  /// Rates of further PELS hops chained after R1 -> R2: entry h-1 is hop h,
  /// R(h+1) -> R(h+2), whose queue stamps router id pels_queue.router_id + h.
  /// Each has bottleneck_delay and a plain reverse FIFO; TCP flows, `faults`
  /// and wireless_loss stay on hop 0. Empty (default) = the
  /// single-bottleneck bar-bell.
  std::vector<double> downstream_bps;
  /// Hops PELS flow k crosses, first to last inclusive: entry k % size(), the
  /// way edge_delays is read. Empty (default) = every hop.
  struct HopSpan {
    int first_hop = 0;
    int last_hop = 0;
  };
  std::vector<HopSpan> hop_spans;
  double edge_bps = 10e6;
  SimTime edge_delay = from_millis(2);
  /// Per-flow edge propagation delay (RTT diversity, fairness-matrix cells):
  /// flow k — PELS flows first, then TCP flows — uses entry k % size() on
  /// both of its edges, so base RTTs differ while the shared bottleneck path
  /// stays common. Empty (default) = uniform edge_delay everywhere.
  std::vector<SimTime> edge_delays;
  SimTime bottleneck_delay = from_millis(10);
  std::size_t edge_queue_limit = 1000;  // packets; edges should not drop

  PelsQueueConfig pels_queue;            // link_bandwidth_bps is overwritten
  BestEffortQueueConfig best_effort_queue;  // ditto
  RemQueueConfig rem_queue;                 // ditto
  MkcConfig mkc;
  /// Controller kind of PELS flow k: entry k % size(), the way hop_spans is
  /// read (CC-independence ablations, fairness-matrix cells). Every kind
  /// runs its CcZooConfig defaults. Empty (default) = MKC, or REM on a kRem
  /// bottleneck (it signals through marks, not feedback labels).
  std::vector<CcKind> cc_kinds;
  PelsSourceConfig source;  // `partition` is forced by `bottleneck` kind
  RdModelConfig rd;
  /// Constant-quality R-D scaling (paper's [5] extension): sources allocate
  /// FGS budget across a lookahead window by max-min PSNR.
  bool rd_aware_scaling = false;

  /// Wireless-style corruption probability on the forward bottleneck wire:
  /// non-congestive loss that happens *after* the AQM and signals nothing to
  /// it. Exercises the loss-vs-congestion confusion (bench/ablation_wireless).
  double wireless_loss = 0.0;

  /// Scripted fault schedule applied to the bottleneck: link flaps and
  /// brown-outs on the forward direction, ACK blackouts on the reverse,
  /// router restarts on the PELS queue, Gilbert–Elliott burst corruption on
  /// the forward wire. Deterministic given `seed`. Empty = fault-free run.
  FaultPlan faults;

  std::uint64_t seed = 1;

  /// Scheduler calendar tier (see DESIGN.md "Event model"): false pins the
  /// scenario's scheduler to the heap-only baseline. The two produce
  /// byte-identical runs (verified by tests/scheduler_wheel_test.cpp); the
  /// switch exists for that regression test and for A/B benching.
  bool scheduler_wheel = true;

  /// Declarative telemetry switch (see DESIGN.md "Telemetry"): when enabled,
  /// the scenario builds a MetricsRegistry, registers every instrumented
  /// layer (bottleneck AQM, bottleneck link, each source and sink), and runs
  /// a TimeSeriesSampler at `telemetry.period`. Off by default — the packet
  /// path then carries no telemetry work at all.
  TelemetryConfig telemetry;

  /// Runtime invariant monitor (see DESIGN.md §9): when enabled, the
  /// scenario attaches an InvariantMonitor checking packet conservation on
  /// every link, per-band occupancy bounds at the PELS bottleneck, γ ∈ [0,1]
  /// and non-negative finite MKC rates per flow, monotone telemetry sample
  /// timestamps, and (when progress_stall_ticks > 0) bottleneck arrival
  /// progress. Violations carry the fault-plan position as context. Off by
  /// default; the chaos campaign (bench/chaos_sweep) and robustness tests
  /// turn it on.
  InvariantConfig invariants;

  /// Number of bottleneck hops: 1 + downstream_bps.size().
  int hops() const { return 1 + static_cast<int>(downstream_bps.size()); }

  /// Rejects nonsensical parameters (probabilities outside [0,1), gains
  /// outside their stability regions, non-positive bandwidths/intervals,
  /// restarts without a PELS bottleneck, hop spans outside the hops,
  /// downstream hops behind a comparator bottleneck) with
  /// std::invalid_argument. Called
  /// by the DumbbellScenario constructor — a bad config fails fast instead
  /// of producing a silently absurd simulation.
  void validate() const;
};

/// Convenience: start times 0, t, 2t, ... for a staircase join pattern
/// (two flows per step is Fig. 8/9's "two new flows every 50 seconds").
std::vector<SimTime> staircase_starts(int flows, int per_step, SimTime step);

/// The §5.2 parking lot: two 4 mb/s PELS hops (router ids 1 and 2), PELS
/// flows ordered long (both hops), then cross flows on hop 1, then on hop 2;
/// 20 mb/s edges with 2000-packet queues and no TCP. Throws
/// std::invalid_argument on a negative count.
ScenarioConfig parking_lot_config(int long_flows, int cross_hop1, int cross_hop2);

class DumbbellScenario {
 public:
  explicit DumbbellScenario(ScenarioConfig config);

  /// Advances the simulation to absolute time `t`.
  void run_until(SimTime t);
  /// Finalizes all sinks' buffered frames (call once, after the last run).
  void finish();

  Simulation& sim() { return sim_; }
  /// The underlying graph — link 0 is the forward bottleneck, link 1 the
  /// reverse (ACK) direction, then each downstream hop's forward and reverse
  /// link. Exposed for invariant checks and fault tooling that need per-link
  /// counters.
  Topology& topology() { return topo_; }
  int pels_flow_count() const { return cfg_.pels_flows; }
  PelsSource& source(int i) { return *sources_.at(static_cast<std::size_t>(i)); }
  PelsSink& sink(int i) { return *sinks_.at(static_cast<std::size_t>(i)); }
  TcpLikeSource& tcp_source(int i) { return *tcp_sources_.at(static_cast<std::size_t>(i)); }

  /// Bottleneck queue views (exactly one is non-null, per `bottleneck`).
  /// pels_queue(h) is hop h's PELS queue; downstream hops are always PELS.
  PelsQueue* pels_queue(int hop = 0) { return pels_queues_.at(static_cast<std::size_t>(hop)); }
  BestEffortQueue* best_effort_queue() { return best_effort_queue_; }
  RemQueue* rem_queue() { return rem_queue_; }
  QueueDisc& bottleneck_queue();

  /// Capacity share of the video/PELS class at the bottleneck, bits/s.
  double video_capacity_bps() const;

  /// Degrades/upgrades the forward bottleneck link mid-run (failure
  /// injection): adjusts both the wire rate and the AQM's capacity share.
  void set_bottleneck_bandwidth(double bandwidth_bps);

  /// Loss rate of `c`-coloured packets at the bottleneck per second
  /// (drops/arrivals within the second; 0 when no arrivals).
  const TimeSeries& loss_series(Color c) const {
    return loss_series_[static_cast<std::size_t>(c)];
  }

  /// Aggregate FGS (yellow+red) loss rate per second.
  const TimeSeries& fgs_loss_series() const { return fgs_loss_series_; }

  const RdModel& rd_model() const { return rd_; }
  const ScenarioConfig& config() const { return cfg_; }

  /// Shared SoA flow state (see cc/flow_table.h). Every PELS flow's
  /// controller state, gamma and pacing EWMA live in its slot.
  FlowTable& flow_table() { return *flow_table_; }

  /// Telemetry views; null unless config().telemetry.enabled. The registry
  /// holds every instrument registered at construction (prefixes:
  /// "bottleneck", "bottleneck.link", "flowN", "sinkN", and "bottleneckH" /
  /// "bottleneckH.link" for downstream hop H-1 >= 1); the sampler snapshots
  /// them every telemetry.period of simulated time.
  MetricsRegistry* metrics() { return metrics_.get(); }
  TimeSeriesSampler* telemetry_sampler() { return telemetry_.get(); }
  const TimeSeriesSampler* telemetry_sampler() const { return telemetry_.get(); }

  /// Invariant monitor; null unless config().invariants.enabled. Violations
  /// (if any) accumulate in monitor->violations(); with abort_on_violation
  /// the failing tick throws InvariantViolationError out of run_until.
  InvariantMonitor* invariant_monitor() { return invariants_.get(); }
  const InvariantMonitor* invariant_monitor() const { return invariants_.get(); }

 private:
  void sample_losses();
  QueueFactory pels_queue_factory(int hop);
  void setup_telemetry();
  void setup_invariants();

  ScenarioConfig cfg_;
  Simulation sim_;
  Topology topo_;
  RdModel rd_;
  std::unique_ptr<FlowTable> flow_table_;

  // Per hop: the PELS queue (hop 0's is null behind a comparator) and the
  // forward link. Hop 0's forward link is the bottleneck.
  std::vector<PelsQueue*> pels_queues_;
  std::vector<Link*> hop_links_;
  BestEffortQueue* best_effort_queue_ = nullptr;
  RemQueue* rem_queue_ = nullptr;
  QueueDisc* bottleneck_ = nullptr;

  std::vector<std::unique_ptr<PelsSource>> sources_;
  std::vector<std::unique_ptr<PelsSink>> sinks_;
  std::vector<std::unique_ptr<TcpLikeSource>> tcp_sources_;
  std::vector<std::unique_ptr<TcpSink>> tcp_sinks_;

  std::unique_ptr<PeriodicTimer> sampler_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<TimeSeriesSampler> telemetry_;
  std::unique_ptr<InvariantMonitor> invariants_;
  ColorCounters last_counters_;
  TimeSeries loss_series_[kNumColors];
  TimeSeries fgs_loss_series_;
};

}  // namespace pels
