// Multi-bottleneck fabric generator + mixed-traffic driver (ROADMAP
// "Million-flow scale-out").
//
// DumbbellScenario in src/pels/scenario.h is the paper's topology and, with
// chained PELS hops, its per-flow PelsSource parking lot; this file builds the
// larger fabrics needed to exercise population-scale control:
//
//   * parking-lot chains — N bottleneck routers in a row, a host hanging off
//     each end and each junction, so long flows cross every bottleneck while
//     short flows congest only one hop (the classic multi-bottleneck fairness
//     topology of §5.2's max-min feedback rule);
//   * fat-tree-ish pod/rack fabrics — hosts under per-rack ToR routers,
//     racks under a per-pod aggregation router, pods joined by one core
//     router. Optionally each pod maps onto its own DomainRunner domain:
//     `pods` domains, pod p in domain p. The hostless core then has no
//     domain of its own; it is a transit router (Topology::
//     add_transit_router). Each core -> pod downlink is driven by the pod
//     it feeds, and a packet on a pod uplink is routed through the core's
//     table at wire exit and handed once, straight to its destination pod,
//     whose thread runs the core's forwarding and the downlink. The pod
//     uplinks are the only boundary links; their propagation delay is the
//     conservative lookahead.
//
// Every contended (core/uplink) link carries a PelsQueue, so the fabric has
// one feedback meter per bottleneck; edge links are plain FIFOs.
//
// On top of a fabric, gen_mixed_traffic() produces a deterministic flow mix
// (long-lived video, short mice, bulk elephants — in the spirit of htsim's
// gen_mixed_traffic/main_mixed drivers), and ManyFlowDriver runs such a mix
// at populations the per-flow PelsSource machinery was never sized for. The
// driver is sharded by domain: each shard owns the flows sourced in its
// domain (a FlowTable of control state, per-flow pacing events, and one
// control tick reading that domain's bottleneck meters), so a
// domain_per_pod fat tree runs one shard per pod under DomainRunner,
// byte-identical at any thread count. Only video flows hold FlowTable slots
// (mice and elephants are fixed-rate and keep their rate in the per-flow
// record), so a shard's control tick is one linear pass over its table. The
// per-packet record a pacing event reads and writes is one 64-byte cache
// line. Receiver state is a dense SinkTable fed through host default agents
// — one 16-byte {packets, bytes} cell per flow instead of a map entry plus
// sink object (no per-flow ACK path — the driver measures simulator cost
// per packet, not end-to-end protocol dynamics; bench/many_flows.cpp is the
// consumer). On a multi-domain fabric the cells are grouped by receiving
// domain, each group on its own cache lines (SinkTable::partition).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cc/flow_table.h"
#include "cc/sink_table.h"
#include "net/host.h"
#include "net/topology.h"
#include "queue/pels_queue.h"
#include "sim/simulation.h"
#include "util/cache_line.h"
#include "util/time.h"

namespace pels {

struct FabricConfig {
  enum class Kind {
    kParkingLot,  // chain of `hops` bottleneck routers
    kFatTree,     // pods x racks_per_pod x hosts_per_rack under one core
  };
  Kind kind = Kind::kParkingLot;

  /// Parking lot: number of bottleneck links in the chain (>= 1). Hosts
  /// H0..H_hops hang off routers R0..R_hops; a flow H0 -> H_hops crosses
  /// every bottleneck, Hi -> Hi+1 exactly one.
  int hops = 3;

  /// Fat tree: geometry. One ToR router per rack, one aggregation router per
  /// pod, one core router overall. Contended tiers (PELS AQM) are the
  /// rack -> aggregation and aggregation -> core uplinks.
  int pods = 2;
  int racks_per_pod = 2;
  int hosts_per_rack = 2;
  /// Map each pod onto its own Simulation domain (pod p = domain p; the
  /// core is a transit router run by the pods) so DomainRunner can execute
  /// pods in parallel. The pod uplink delay is the lookahead, so it must
  /// stay > 0. Single-domain when false.
  bool domain_per_pod = false;

  double edge_bandwidth_bps = 100e6;  // host <-> ToR, uncontended
  double core_bandwidth_bps = 20e6;   // the bottleneck tier
  SimTime edge_delay = from_micros(20);
  SimTime core_delay = from_millis(2);

  /// Template for every bottleneck queue; router_id and link_bandwidth_bps
  /// are filled in per link (router ids count up in link creation order).
  PelsQueueConfig core_queue;
  std::size_t edge_queue_limit = 256;

  std::uint64_t seed = 1;
};

/// A built fabric: owns its Simulations (one per domain) and Topology, and
/// exposes the pieces traffic generators need — the host list, and the
/// bottleneck links with their PelsQueues.
class Fabric {
 public:
  explicit Fabric(FabricConfig cfg);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  const FabricConfig& config() const { return cfg_; }

  Topology& topology() { return *topo_; }
  int domain_count() const { return static_cast<int>(sims_.size()); }
  Simulation& sim(int domain = 0) { return *sims_[static_cast<std::size_t>(domain)]; }

  /// End hosts in creation order; FlowSpec src/dst index into this.
  const std::vector<Host*>& hosts() const { return hosts_; }
  int host_domain(std::size_t host_index) const { return host_domains_[host_index]; }

  /// Bottleneck links (each carrying a PelsQueue), in creation order.
  const std::vector<Link*>& core_links() const { return core_links_; }
  PelsQueue& core_queue(std::size_t i) { return *core_queues_[i]; }
  std::size_t core_queue_count() const { return core_queues_.size(); }
  /// Domain whose scheduler runs core queue `i`'s events (= the domain
  /// that drives its link) — the locality rule sharded drivers partition
  /// meters by.
  int core_queue_domain(std::size_t i) const { return core_queue_domains_[i]; }

  /// Pre-sizes every domain's runtime pools for `expected_flows` concurrent
  /// flows (see Topology::reserve_runtime).
  void reserve_runtime(std::size_t expected_flows) { topo_->reserve_runtime(expected_flows); }

 private:
  void build_parking_lot();
  void build_fat_tree();
  Link& add_core_link(Node& from, Node& to, SimTime delay);
  Link& add_edge_link(Node& from, Node& to);

  FabricConfig cfg_;
  std::vector<std::unique_ptr<Simulation>> sims_;
  std::unique_ptr<Topology> topo_;
  std::vector<Host*> hosts_;
  std::vector<int> host_domains_;  // parallel to hosts_
  std::vector<Link*> core_links_;
  std::vector<PelsQueue*> core_queues_;
  std::vector<int> core_queue_domains_;
  std::int32_t next_router_id_ = 0;
};

// --- mixed traffic --------------------------------------------------------

enum class TrafficClass {
  kVideo,     // long-lived, MKC-controlled, PELS-colored
  kMice,      // short request/response bursts, Internet-colored
  kElephant,  // long bulk transfers, Internet-colored
};

struct FlowSpec {
  TrafficClass cls = TrafficClass::kVideo;
  int src_host = 0;  // index into Fabric::hosts()
  int dst_host = 0;
  SimTime start = 0;
  double rate_bps = 0;           // initial (video) or fixed (mice/elephant) rate
  std::int32_t packet_bytes = 1000;
  std::int64_t total_bytes = 0;  // 0 = unbounded (video/elephants run forever)
};

struct MixedTrafficConfig {
  std::size_t video_flows = 16;
  std::size_t mice_flows = 16;
  std::size_t elephant_flows = 2;
  /// Flow starts are spread uniformly over [0, start_window) so the fabric
  /// does not see a synchronized thundering herd at t = 0.
  SimTime start_window = from_seconds(1.0);
  double video_rate_bps = 128e3;   // matches MkcConfig::initial_rate_bps
  double mice_rate_bps = 400e3;
  double elephant_rate_bps = 2e6;
  /// Mice sizes draw from a Pareto (shape 1.5) with this mean — the classic
  /// heavy-tailed short-transfer model.
  std::int64_t mice_mean_bytes = 20'000;
  std::int32_t packet_bytes = 1000;
  std::uint64_t seed = 42;
};

/// Deterministic flow mix over the fabric's hosts: same (fabric geometry,
/// config, seed) always yields the same specs, in a fixed order (videos,
/// then mice, then elephants; src != dst per flow). Specs are sorted by
/// start time with the generation order breaking ties, so drivers can
/// activate them with a single cursor.
std::vector<FlowSpec> gen_mixed_traffic(const Fabric& fabric, const MixedTrafficConfig& cfg);

// --- population-scale driver ----------------------------------------------

struct ManyFlowDriverConfig {
  MkcConfig mkc;
  GammaConfig gamma;
  /// Shared control tick period: one timer per shard updates every video
  /// flow's FlowTable slot in place (vs. one timer per flow in PelsSource).
  SimTime control_interval = from_millis(200);
  /// Fraction of each video flow's packets sent green (the base layer's
  /// bandwidth share); the FGS remainder splits red/yellow by the flow's
  /// gamma. Chosen per packet by a deterministic hash of (flow, seq).
  double green_fraction = 0.25;
  /// Per-flow rate cap as a multiple of the initial rate. Population-scale
  /// runs share one bottleneck thousands of ways; without a cap the early
  /// starters ramp to the whole link and the aggregate event rate explodes
  /// before feedback reins them in.
  double max_rate_factor = 3.0;

  /// Throws std::invalid_argument naming the field for control_interval <= 0
  /// (the tick would reschedule itself at the same instant forever), a
  /// non-finite or non-positive max_rate_factor (an infinite or negative
  /// pacing gap) and green_fraction outside [0, 1] or NaN. mkc and gamma are
  /// checked by FlowTable.
  void validate() const;
};

/// Runs a flow mix over a fabric with population-scale machinery, sharded by
/// domain: every flow belongs to the shard of its *source host's* domain,
/// and each shard owns a FlowTable of its video flows' control state, an
/// activation cursor, per-flow pacing events, and a control tick that makes
/// one pass over the table — all scheduled on the shard's own domain
/// Simulation, so DomainRunner executes shards in parallel and the result is
/// byte-identical at any thread count (tests/fabric_test.cpp pins it).
///
/// The conservative-lookahead contract holds because a shard's control tick
/// reads only the queue meters local to its domain: cross-pod congestion
/// feedback travels with the packets through the boundary-link handoff, the
/// same way it reaches a real sender. A single-domain fabric degenerates to
/// one shard reading every meter — the original shared-control-tick
/// semantics.
///
/// Per-flow receiver state is a SinkTable (one dense column of 16-byte
/// {packets, bytes} cells indexed by flow id) fed through each host's default
/// agent — no per-flow map entries, no per-host sink objects; see
/// cc/sink_table.h for the single-writer-per-cell argument that makes
/// cross-domain delivery race-free.
class ManyFlowDriver {
 public:
  /// Throws std::invalid_argument naming the field when cfg fails
  /// ManyFlowDriverConfig::validate(), and naming the flow's index in
  /// `flows` and the field when a spec has a host outside Fabric::hosts(),
  /// src == dst, a non-finite or non-positive rate, packet_bytes <= 0,
  /// total_bytes < 0 or start < 0.
  ManyFlowDriver(Fabric& fabric, std::vector<FlowSpec> flows, ManyFlowDriverConfig cfg);
  ~ManyFlowDriver();

  ManyFlowDriver(const ManyFlowDriver&) = delete;
  ManyFlowDriver& operator=(const ManyFlowDriver&) = delete;

  /// Starts every shard's flow-activation cursor and control tick.
  void start();
  /// Runs a single-domain fabric in place. Multi-domain fabrics must run
  /// under a DomainRunner over fabric.topology() (which also covers the
  /// serial case at threads = 1); this throws to catch the misuse.
  void run_until(SimTime t_end);

  std::size_t flow_count() const { return flows_.size(); }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t live_flows() const;
  std::uint64_t packets_sent() const;
  std::uint64_t packets_received() const { return sink_table_.totals().packets; }
  std::uint64_t bytes_received() const { return sink_table_.totals().bytes; }
  std::uint64_t control_ticks() const;
  /// Shard-local flow table (shards are indexed by domain). It holds the
  /// shard's live video flows only; fixed-rate flows take no slot.
  FlowTable& flow_table(std::size_t shard = 0) { return shards_[shard].table; }
  /// Current rate of a started, unfinished flow: the table's controller rate
  /// for video, the spec rate for fixed-rate mice and elephants.
  double flow_rate_bps(std::size_t i) const {
    const FlowRt& f = flows_[i];
    return f.cls == TrafficClass::kVideo ? shards_[f.shard].table.rate_bps(f.slot) : f.rate_bps;
  }
  bool flow_done(std::size_t i) const { return flows_[i].done; }

  /// Per-class roll-up for mixed-traffic benches (video/mice/elephant
  /// splits). Linear scan over the population; call at barrier points.
  struct ClassCounts {
    std::uint64_t flows = 0;
    std::uint64_t packets_sent = 0;
    std::uint64_t packets_delivered = 0;
    std::uint64_t bytes_delivered = 0;
  };
  ClassCounts class_counts(TrafficClass cls) const;

  /// Order-independent digest of the end state every domain interleaving
  /// must reproduce: per-flow send counts, rate/gamma bit patterns, and
  /// delivered packet/byte counts. Byte-identity tests and the bench compare
  /// this across thread counts.
  std::uint64_t fingerprint() const;

  /// Heap footprint of the driver's per-flow state: the flow records and
  /// start times, every shard's FlowTable columns and member lists, and the
  /// SinkTable. The bytes/flow budget gated by bench/many_flows is
  /// driver_memory_bytes() / flow_count().
  std::size_t driver_memory_bytes() const;

 private:
  /// The per-packet record: exactly what send_next reads or writes, on one
  /// cache line. Construction-only spec fields stay out (the start time
  /// lives in the cold starts_ column the activation cursor reads).
  struct alignas(64) FlowRt {
    Host* src = nullptr;
    double rate_bps = 0.0;  // spec rate: the fixed rate, or video's cap base
    std::uint64_t next_seq = 0;
    std::int64_t bytes_left = 0;       // < 0 = unbounded
    EventId pace_event = 0;            // the flow's single self-rescheduling send
    FlowSlot slot = kInvalidFlowSlot;  // FlowTable slot while a live video flow
    std::uint32_t shard = 0;           // owning shard == source host's domain
    NodeId dst = -1;
    std::int32_t packet_bytes = 0;
    TrafficClass cls = TrafficClass::kVideo;
    bool started = false;
    bool done = false;
  };
  static_assert(sizeof(FlowRt) == 64, "a pacing event must touch one cache line");

  /// Per-domain driver state. Everything a shard touches while running —
  /// its table, cursor, counters, events — is written only by its domain's
  /// worker; cross-shard aggregation happens in the const accessors, after
  /// (or between) runs.
  /// On its own cache line (about 1.1 KB, not a multiple of 64 B): adjacent
  /// shards belong to domains that run on different threads.
  struct alignas(kCacheLineSize) Shard {
    explicit Shard(const ManyFlowDriverConfig& cfg) : table(cfg.mkc, cfg.gamma) {}
    FlowTable table;                     // live video flows only
    std::vector<std::uint32_t> members;  // owned flow ids, activation order
    std::size_t next_to_start = 0;       // activation cursor into members
    std::size_t fixed_live = 0;          // started, unfinished mice/elephants
    std::vector<PelsQueue*> meters;      // core-queue meters in this domain
    std::uint64_t packets_sent = 0;
    std::uint64_t control_ticks = 0;
    EventId activation_event = 0;
    EventId control_event = 0;
  };

  void activate_due_flows(std::uint32_t shard);
  void send_next(std::uint32_t index);
  void on_control_tick(std::uint32_t shard);
  double pacing_rate(const FlowRt& f) const;

  Fabric& fabric_;
  ManyFlowDriverConfig cfg_;
  std::vector<FlowRt> flows_;    // sorted by spec.start (gen_mixed_traffic order)
  std::vector<SimTime> starts_;  // per-flow spec.start, read by the activation cursor
  std::vector<Shard> shards_;    // indexed by domain
  SinkTable sink_table_;         // indexed by flow id; written at delivery
  SinkTableAgent sink_agent_;    // shared default agent on every fabric host
  bool started_ = false;
};

}  // namespace pels
