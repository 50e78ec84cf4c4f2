#include "exp/fabric.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "queue/drop_tail.h"
#include "util/rng.h"

namespace pels {

Fabric::Fabric(FabricConfig cfg) : cfg_(cfg) {
  const bool multi_domain = cfg_.kind == FabricConfig::Kind::kFatTree && cfg_.domain_per_pod;
  // With domain_per_pod pod p is domain p (the core is a transit router of
  // no domain); otherwise everything lives in domain 0. All domains must
  // exist before any node is added (Topology::add_domain contract).
  const int domains = multi_domain ? std::max(cfg_.pods, 1) : 1;
  sims_.reserve(static_cast<std::size_t>(domains));
  for (int d = 0; d < domains; ++d) {
    sims_.push_back(std::make_unique<Simulation>(cfg_.seed + static_cast<std::uint64_t>(d)));
  }
  topo_ = std::make_unique<Topology>(*sims_[0]);
  for (int d = 1; d < domains; ++d) topo_->add_domain(*sims_[d]);

  switch (cfg_.kind) {
    case FabricConfig::Kind::kParkingLot:
      build_parking_lot();
      break;
    case FabricConfig::Kind::kFatTree:
      build_fat_tree();
      break;
  }
  topo_->compute_routes();
}

Link& Fabric::add_core_link(Node& from, Node& to, SimTime delay) {
  // The link's events run in the domain that drives it, so the queue's
  // feedback timer must live on that domain's scheduler.
  const int domain = topo_->link_domain(from, to);
  Scheduler& sched = sims_[static_cast<std::size_t>(domain)]->scheduler();
  PelsQueue* queue = nullptr;
  const QueueFactory factory = [this, &sched, &queue](double bw) {
    PelsQueueConfig qc = cfg_.core_queue;
    qc.router_id = next_router_id_++;
    qc.link_bandwidth_bps = bw;
    auto q = std::make_unique<PelsQueue>(sched, qc);
    queue = q.get();
    return q;
  };
  Link& link = topo_->add_link(from, to, cfg_.core_bandwidth_bps, delay, factory);
  core_links_.push_back(&link);
  core_queues_.push_back(queue);
  core_queue_domains_.push_back(domain);
  return link;
}

Link& Fabric::add_edge_link(Node& from, Node& to) {
  const QueueFactory factory = [this](double) {
    return std::make_unique<DropTailQueue>(cfg_.edge_queue_limit);
  };
  return topo_->add_link(from, to, cfg_.edge_bandwidth_bps, cfg_.edge_delay, factory);
}

void Fabric::build_parking_lot() {
  if (cfg_.hops < 1) throw std::invalid_argument("parking lot needs hops >= 1");
  // Routers R0..R_hops in a chain; host Hi off every router. The forward
  // direction of each chain link is the bottleneck; the reverse direction
  // (ACK-sized traffic in real workloads) is a plain FIFO.
  std::vector<Router*> routers;
  routers.reserve(static_cast<std::size_t>(cfg_.hops) + 1);
  for (int i = 0; i <= cfg_.hops; ++i) {
    const std::string n = std::to_string(i);
    Router& r = topo_->add_router("R" + n);
    routers.push_back(&r);
    Host& h = topo_->add_host("H" + n);
    hosts_.push_back(&h);
    host_domains_.push_back(0);
    add_edge_link(h, r);
    add_edge_link(r, h);
  }
  for (int i = 0; i < cfg_.hops; ++i) {
    add_core_link(*routers[static_cast<std::size_t>(i)],
                  *routers[static_cast<std::size_t>(i) + 1], cfg_.core_delay);
    add_edge_link(*routers[static_cast<std::size_t>(i) + 1],
                  *routers[static_cast<std::size_t>(i)]);
  }
}

void Fabric::build_fat_tree() {
  if (cfg_.pods < 1 || cfg_.racks_per_pod < 1 || cfg_.hosts_per_rack < 1) {
    throw std::invalid_argument("fat tree needs pods/racks/hosts >= 1");
  }
  const bool multi_domain = cfg_.domain_per_pod;
  Router& core = multi_domain ? topo_->add_transit_router("core") : topo_->add_router("core", 0);
  for (int p = 0; p < cfg_.pods; ++p) {
    const int domain = multi_domain ? p : 0;
    const std::string pod_idx = std::to_string(p);
    const std::string pod = "p" + pod_idx;
    Router& agg = topo_->add_router(pod + ".agg", domain);
    // Pod uplink/downlink: the aggregation <-> core tier. The uplink is a
    // bottleneck; the downlink shares the wire's rate and delay but stays a
    // plain FIFO (no AQM under study on the return path). With
    // domain_per_pod the pod drives both: the uplink hands each packet to
    // the pod its route enters, across the uplink's core_delay (the
    // lookahead), and that pod forwards it through the core onto its own
    // downlink.
    add_core_link(agg, core, cfg_.core_delay);
    const QueueFactory downlink = [this](double) {
      return std::make_unique<DropTailQueue>(cfg_.edge_queue_limit);
    };
    topo_->add_link(core, agg, cfg_.core_bandwidth_bps, cfg_.core_delay, downlink);
    for (int r = 0; r < cfg_.racks_per_pod; ++r) {
      const std::string rack = pod + ".r" + std::to_string(r);
      Router& tor = topo_->add_router(rack + ".tor", domain);
      // Rack uplink (bottleneck) and downlink within the pod's domain.
      add_core_link(tor, agg, cfg_.core_delay);
      add_edge_link(agg, tor);
      for (int h = 0; h < cfg_.hosts_per_rack; ++h) {
        Host& host = topo_->add_host(rack + ".h" + std::to_string(h), domain);
        hosts_.push_back(&host);
        host_domains_.push_back(domain);
        add_edge_link(host, tor);
        add_edge_link(tor, host);
      }
    }
  }
}

// --- mixed traffic --------------------------------------------------------

std::vector<FlowSpec> gen_mixed_traffic(const Fabric& fabric, const MixedTrafficConfig& cfg) {
  const auto n_hosts = static_cast<std::int64_t>(fabric.hosts().size());
  if (n_hosts < 2) throw std::invalid_argument("gen_mixed_traffic needs >= 2 hosts");
  Rng rng(cfg.seed, /*stream=*/0x3A10);

  std::vector<FlowSpec> specs;
  specs.reserve(cfg.video_flows + cfg.mice_flows + cfg.elephant_flows);

  const auto draw_pair = [&](FlowSpec& s) {
    s.src_host = static_cast<int>(rng.uniform_int(0, n_hosts - 1));
    s.dst_host = static_cast<int>(rng.uniform_int(0, n_hosts - 2));
    if (s.dst_host >= s.src_host) ++s.dst_host;  // uniform over hosts != src
  };
  const auto draw_start = [&]() -> SimTime {
    if (cfg.start_window <= 0) return 0;
    return static_cast<SimTime>(rng.uniform(0.0, static_cast<double>(cfg.start_window)));
  };

  for (std::size_t i = 0; i < cfg.video_flows; ++i) {
    FlowSpec s;
    s.cls = TrafficClass::kVideo;
    draw_pair(s);
    s.start = draw_start();
    s.rate_bps = cfg.video_rate_bps;
    s.packet_bytes = cfg.packet_bytes;
    specs.push_back(s);
  }
  for (std::size_t i = 0; i < cfg.mice_flows; ++i) {
    FlowSpec s;
    s.cls = TrafficClass::kMice;
    draw_pair(s);
    s.start = draw_start();
    s.rate_bps = cfg.mice_rate_bps;
    s.packet_bytes = cfg.packet_bytes;
    // Pareto(alpha = 1.5) has mean alpha * xm / (alpha - 1) = 3 * xm.
    const double xm = static_cast<double>(cfg.mice_mean_bytes) / 3.0;
    const double bytes = rng.pareto(1.5, xm);
    s.total_bytes = std::max<std::int64_t>(cfg.packet_bytes, static_cast<std::int64_t>(bytes));
    specs.push_back(s);
  }
  for (std::size_t i = 0; i < cfg.elephant_flows; ++i) {
    FlowSpec s;
    s.cls = TrafficClass::kElephant;
    draw_pair(s);
    s.start = draw_start();
    s.rate_bps = cfg.elephant_rate_bps;
    s.packet_bytes = cfg.packet_bytes;
    specs.push_back(s);
  }
  // Activation order for the driver's cursor; stable keeps the
  // video/mice/elephant generation order among equal starts.
  std::stable_sort(specs.begin(), specs.end(),
                   [](const FlowSpec& a, const FlowSpec& b) { return a.start < b.start; });
  return specs;
}

// --- population-scale driver ----------------------------------------------

namespace {

/// Deterministic per-packet hash in [0, 1): colors are a pure function of
/// (flow, seq), independent of event interleavings and RNG draw order.
double packet_hash01(FlowId flow, std::uint64_t seq) {
  std::uint64_t state = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(flow)) << 40) ^ seq;
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/// Rejects a spec the driver cannot run, naming the flow's index in the
/// caller's vector and the bad field: an out-of-range host would index past
/// Fabric::hosts(), a non-positive rate would turn the pacing gap into an
/// infinite SimTime, and a non-positive packet size would resend 0-byte
/// packets forever.
void validate_flow_spec(const FlowSpec& s, std::size_t index, int hosts) {
  const auto fail = [index](const std::string& what) {
    throw std::invalid_argument("ManyFlowDriver: flow " + std::to_string(index) + ": " + what);
  };
  const auto check_host = [&](const char* field, int host) {
    if (host < 0 || host >= hosts) {
      fail(std::string(field) + " " + std::to_string(host) + " outside [0, " +
           std::to_string(hosts) + ")");
    }
  };
  check_host("src_host", s.src_host);
  check_host("dst_host", s.dst_host);
  if (s.src_host == s.dst_host) fail("src_host == dst_host (" + std::to_string(s.src_host) + ")");
  if (!std::isfinite(s.rate_bps) || s.rate_bps <= 0.0) {
    fail("rate_bps must be finite and > 0, got " + std::to_string(s.rate_bps));
  }
  if (s.packet_bytes <= 0) fail("packet_bytes must be > 0, got " + std::to_string(s.packet_bytes));
  if (s.total_bytes < 0) fail("total_bytes must be >= 0, got " + std::to_string(s.total_bytes));
  if (s.start < 0) fail("start must be >= 0, got " + std::to_string(s.start));
}

}  // namespace

void ManyFlowDriverConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("ManyFlowDriverConfig: " + what);
  };
  if (control_interval <= 0) {
    fail("control_interval must be > 0, got " + std::to_string(control_interval));
  }
  if (!std::isfinite(max_rate_factor) || max_rate_factor <= 0.0) {
    fail("max_rate_factor must be finite and > 0, got " + std::to_string(max_rate_factor));
  }
  if (!(green_fraction >= 0.0 && green_fraction <= 1.0)) {
    fail("green_fraction must be in [0, 1], got " + std::to_string(green_fraction));
  }
}

ManyFlowDriver::ManyFlowDriver(Fabric& fabric, std::vector<FlowSpec> flows,
                               ManyFlowDriverConfig cfg)
    : fabric_(fabric), cfg_(cfg), sink_agent_(sink_table_) {
  cfg_.validate();
  const auto domains = static_cast<std::size_t>(fabric.domain_count());
  shards_.reserve(domains);
  for (std::size_t d = 0; d < domains; ++d) shards_.emplace_back(cfg_);
  // A shard's control tick may only read meters whose events run in its own
  // domain (the queue lives on that domain's scheduler, see
  // Fabric::add_core_link) — anything else would read a peer domain's state
  // mid-lookahead-window and break byte-identity under DomainRunner.
  for (std::size_t q = 0; q < fabric.core_queue_count(); ++q) {
    const auto d = static_cast<std::size_t>(fabric.core_queue_domain(q));
    shards_[d].meters.push_back(&fabric.core_queue(q));
  }

  const auto hosts = static_cast<int>(fabric.hosts().size());
  for (std::size_t i = 0; i < flows.size(); ++i) validate_flow_spec(flows[i], i, hosts);
  flows_.reserve(flows.size());
  starts_.reserve(flows.size());
  if (domains == 1) sink_table_.resize(flows.size());
  // Flow ids (= indices) follow activation order, so they are a property of
  // the mix alone — not of the fabric's domain partitioning or the thread
  // count. Specs already in that order (gen_mixed_traffic's) are used as
  // given; any other mix is stable-sorted (equal starts keep their input
  // order).
  const auto by_start = [](const FlowSpec& a, const FlowSpec& b) { return a.start < b.start; };
  if (!std::is_sorted(flows.begin(), flows.end(), by_start)) {
    std::stable_sort(flows.begin(), flows.end(), by_start);
  }
  std::vector<std::size_t> videos(shards_.size(), 0);
  // With several domains delivering, sink cells are grouped by the
  // destination host's domain.
  std::vector<std::uint32_t> receiver;
  if (domains > 1) receiver.reserve(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowSpec& spec = flows[i];
    FlowRt f;
    f.src = fabric.hosts()[static_cast<std::size_t>(spec.src_host)];
    f.rate_bps = spec.rate_bps;
    f.bytes_left = spec.total_bytes > 0 ? spec.total_bytes : -1;
    f.shard = static_cast<std::uint32_t>(
        fabric.host_domain(static_cast<std::size_t>(spec.src_host)));
    f.dst = fabric.hosts()[static_cast<std::size_t>(spec.dst_host)]->id();
    f.packet_bytes = spec.packet_bytes;
    f.cls = spec.cls;
    shards_[f.shard].members.push_back(static_cast<std::uint32_t>(i));
    if (spec.cls == TrafficClass::kVideo) ++videos[f.shard];
    flows_.push_back(f);
    starts_.push_back(spec.start);
    if (domains > 1) {
      receiver.push_back(static_cast<std::uint32_t>(
          fabric.host_domain(static_cast<std::size_t>(spec.dst_host))));
    }
  }
  if (domains > 1) sink_table_.partition(std::move(receiver), domains);
  for (std::size_t d = 0; d < shards_.size(); ++d) shards_[d].table.reserve(videos[d]);
  // One shared table-backed sink serves every destination host: per-flow
  // receiver state is one SinkTable cell, not a map entry + object.
  for (Host* h : fabric.hosts()) h->set_default_agent(&sink_agent_);
}

ManyFlowDriver::~ManyFlowDriver() {
  for (std::size_t d = 0; d < shards_.size(); ++d) {
    Shard& s = shards_[d];
    Scheduler& sched = fabric_.sim(static_cast<int>(d)).scheduler();
    if (s.activation_event != 0) sched.cancel(s.activation_event);
    if (s.control_event != 0) sched.cancel(s.control_event);
  }
  for (FlowRt& f : flows_) {
    if (f.pace_event != 0) {
      fabric_.sim(static_cast<int>(f.shard)).scheduler().cancel(f.pace_event);
    }
  }
  for (Host* h : fabric_.hosts()) {
    if (h->default_agent() == &sink_agent_) h->set_default_agent(nullptr);
  }
}

void ManyFlowDriver::start() {
  assert(!started_ && "start() is one-shot");
  started_ = true;
  for (std::uint32_t d = 0; d < shards_.size(); ++d) {
    Shard& s = shards_[d];
    if (s.members.empty()) continue;  // a domain whose hosts source nothing idles
    Simulation& sim = fabric_.sim(static_cast<int>(d));
    const SimTime first = std::max(starts_[s.members[0]], sim.now());
    s.activation_event = sim.at(first, [this, d] { activate_due_flows(d); });
    s.control_event = sim.after(cfg_.control_interval, [this, d] { on_control_tick(d); });
  }
}

void ManyFlowDriver::run_until(SimTime t_end) {
  if (fabric_.domain_count() != 1) {
    throw std::logic_error(
        "multi-domain fabric: run the driver under a DomainRunner over "
        "fabric.topology() (threads = 1 is the serial baseline)");
  }
  fabric_.sim().run_until(t_end);
}

void ManyFlowDriver::activate_due_flows(std::uint32_t shard) {
  Shard& s = shards_[shard];
  s.activation_event = 0;
  Simulation& sim = fabric_.sim(static_cast<int>(shard));
  const SimTime now = sim.now();
  while (s.next_to_start < s.members.size() && starts_[s.members[s.next_to_start]] <= now) {
    const std::uint32_t i = s.members[s.next_to_start++];
    FlowRt& f = flows_[i];
    if (f.cls == TrafficClass::kVideo) {
      f.slot = s.table.add_flow(f.rate_bps, cfg_.gamma.initial_gamma);
    } else {
      ++s.fixed_live;
    }
    f.started = true;
    send_next(i);
  }
  if (s.next_to_start < s.members.size()) {
    s.activation_event = sim.at(starts_[s.members[s.next_to_start]],
                                [this, shard] { activate_due_flows(shard); });
  }
}

double ManyFlowDriver::pacing_rate(const FlowRt& f) const {
  if (f.cls != TrafficClass::kVideo) return f.rate_bps;
  return std::min(shards_[f.shard].table.rate_bps(f.slot), cfg_.max_rate_factor * f.rate_bps);
}

void ManyFlowDriver::send_next(std::uint32_t index) {
  FlowRt& f = flows_[index];
  Shard& s = shards_[f.shard];
  Simulation& sim = fabric_.sim(static_cast<int>(f.shard));
  f.pace_event = 0;

  Packet pkt;
  pkt.flow = static_cast<FlowId>(index);
  pkt.seq = f.next_seq++;
  pkt.uid = (static_cast<std::uint64_t>(pkt.flow) << 40) | pkt.seq;
  pkt.size_bytes =
      f.bytes_left > 0
          ? static_cast<std::int32_t>(std::min<std::int64_t>(f.packet_bytes, f.bytes_left))
          : f.packet_bytes;
  pkt.src = f.src->id();
  pkt.dst = f.dst;
  pkt.created_at = sim.now();
  if (f.cls == TrafficClass::kVideo) {
    // Base layer green, FGS remainder split red/yellow by the flow's
    // current gamma — decided per packet by a deterministic hash so the
    // color stream is reproducible whatever the event interleaving.
    const double u = packet_hash01(pkt.flow, pkt.seq);
    if (u < cfg_.green_fraction) {
      pkt.color = Color::kGreen;
    } else {
      const double frac = (u - cfg_.green_fraction) / (1.0 - cfg_.green_fraction);
      pkt.color = frac < s.table.gamma(f.slot) ? Color::kRed : Color::kYellow;
    }
  } else {
    pkt.color = Color::kInternet;
  }

  const std::int32_t size = pkt.size_bytes;
  f.src->send(std::move(pkt));  // drops count as sent: the cost was paid
  ++s.packets_sent;

  if (f.bytes_left > 0) {
    f.bytes_left -= size;
    if (f.bytes_left <= 0) {
      f.done = true;
      if (f.cls == TrafficClass::kVideo) {
        s.table.remove_flow(f.slot);
        f.slot = kInvalidFlowSlot;
      } else {
        --s.fixed_live;
      }
      return;
    }
  }
  const double rate = pacing_rate(f);
  const auto gap = static_cast<SimTime>(static_cast<double>(size) * 8.0 / rate * kSecond);
  f.pace_event = sim.after(std::max<SimTime>(gap, 1), [this, index] { send_next(index); });
}

void ManyFlowDriver::on_control_tick(std::uint32_t shard) {
  Shard& s = shards_[shard];
  ++s.control_ticks;
  // The governing bottleneck in the max-min sense of §5.2 is the most
  // congested one the shard can see without leaving its domain; one scan
  // over the (few) local meters serves the shard's whole population.
  // Cross-domain bottlenecks reach a shard the causal way — as loss on the
  // packets its flows push through them — not by peeking at a meter a
  // lookahead window into a peer's future. Meters publish nothing before
  // their first epoch closes. The table holds exactly the shard's live
  // video flows, so the update is one pass over its columns.
  double p = 0.0;
  double p_fgs = 0.0;
  bool valid = false;
  for (const PelsQueue* queue : s.meters) {
    if (queue->epoch() < 1) continue;
    if (!valid || queue->current_loss() > p) p = queue->current_loss();
    if (!valid || queue->current_fgs_loss() > p_fgs) p_fgs = queue->current_fgs_loss();
    valid = true;
  }
  Simulation& sim = fabric_.sim(static_cast<int>(shard));
  if (valid) s.table.apply_feedback_all(p, p_fgs, sim.now());
  s.control_event = sim.after(cfg_.control_interval, [this, shard] { on_control_tick(shard); });
}

std::size_t ManyFlowDriver::live_flows() const {
  std::size_t total = 0;
  for (const Shard& s : shards_) total += s.table.size() + s.fixed_live;
  return total;
}

std::uint64_t ManyFlowDriver::packets_sent() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.packets_sent;
  return total;
}

std::uint64_t ManyFlowDriver::control_ticks() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.control_ticks;
  return total;
}

ManyFlowDriver::ClassCounts ManyFlowDriver::class_counts(TrafficClass cls) const {
  ClassCounts c;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const FlowRt& f = flows_[i];
    if (f.cls != cls) continue;
    ++c.flows;
    c.packets_sent += f.next_seq;
    c.packets_delivered += sink_table_.packets(i);
    c.bytes_delivered += sink_table_.bytes(i);
  }
  return c;
}

std::uint64_t ManyFlowDriver::fingerprint() const {
  // Chained splitmix64 over the per-flow end state. Rates/gammas enter as
  // bit patterns: byte-identity means bit equality, not epsilon-closeness.
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  const auto mix = [&h](std::uint64_t v) {
    std::uint64_t state = h ^ v;
    h = splitmix64(state);
  };
  const auto mix_double = [&](double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    const FlowRt& f = flows_[i];
    mix(f.next_seq);
    mix(static_cast<std::uint64_t>(f.done ? 1 : 0));
    if (f.started && !f.done) {
      // Fixed-rate flows hold no slot: their rate is the spec rate and their
      // gamma the configured initial one.
      const bool video = f.cls == TrafficClass::kVideo;
      const FlowTable& t = shards_[f.shard].table;
      mix_double(video ? t.rate_bps(f.slot) : f.rate_bps);
      mix_double(video ? t.gamma(f.slot) : cfg_.gamma.initial_gamma);
    }
    mix(sink_table_.packets(i));
    mix(sink_table_.bytes(i));
  }
  return h;
}

std::size_t ManyFlowDriver::driver_memory_bytes() const {
  std::size_t total = flows_.capacity() * sizeof(FlowRt) +
                      starts_.capacity() * sizeof(SimTime) + sink_table_.memory_bytes();
  for (const Shard& s : shards_) {
    total += s.table.memory_bytes() + s.members.capacity() * sizeof(std::uint32_t) +
             s.meters.capacity() * sizeof(PelsQueue*);
  }
  return total;
}

}  // namespace pels
