#include "pels/scenario.h"

#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "fault/chaos.h"
#include "queue/drop_tail.h"

namespace pels {

namespace {

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("ScenarioConfig: ") + what);
}

// One name per hop in telemetry and invariant details: hop 0 keeps the
// bar-bell's "bottleneck"; downstream hop h is "bottleneck<h+1>", the parking
// lot's 1-based hop number.
std::string hop_name(std::size_t h) {
  return h == 0 ? "bottleneck" : "bottleneck" + std::to_string(h + 1);
}

}  // namespace

void ScenarioConfig::validate() const {
  require(pels_flows > 0, "pels_flows must be > 0");
  require(tcp_flows >= 0, "tcp_flows must be >= 0");
  require(bottleneck_bps > 0.0, "bottleneck_bps must be > 0");
  for (const double bps : downstream_bps)
    require(bps > 0.0, "downstream_bps entries must be > 0");
  require(downstream_bps.empty() || bottleneck == BottleneckKind::kPels,
          "downstream hops need a PELS bottleneck");
  for (const HopSpan& span : hop_spans)
    require(0 <= span.first_hop && span.first_hop <= span.last_hop && span.last_hop < hops(),
            "hop_spans entries must satisfy 0 <= first_hop <= last_hop < hops()");
  require(edge_bps > 0.0, "edge_bps must be > 0");
  require(edge_delay >= 0 && bottleneck_delay >= 0, "delays must be >= 0");
  for (const SimTime d : edge_delays)
    require(d >= 0, "edge_delays entries must be >= 0");
  require(edge_queue_limit > 0, "edge_queue_limit must be > 0");
  require(wireless_loss >= 0.0 && wireless_loss < 1.0,
          "wireless_loss must be in [0, 1)");
  mkc.validate();
  source.gamma.validate();
  require(is_stable_gain(source.gamma.sigma),
          "gamma.sigma must be in (0, 2) — eq. (4) stability region (Lemma 2)");
  require(source.control_interval > 0, "source.control_interval must be > 0");
  require(source.feedback_timeout >= 0, "source.feedback_timeout must be >= 0");
  telemetry.validate();
  invariants.validate();
  // Each AQM config's link_bandwidth_bps is overwritten with its hop's rate
  // at construction; validate the rest of the config as it will actually run.
  switch (bottleneck) {
    case BottleneckKind::kPels: {
      PelsQueueConfig qc = pels_queue;
      qc.link_bandwidth_bps = bottleneck_bps;
      qc.validate();
      for (const double bps : downstream_bps) {
        qc.link_bandwidth_bps = bps;
        qc.validate();
      }
      break;
    }
    case BottleneckKind::kBestEffort: {
      BestEffortQueueConfig qc = best_effort_queue;
      qc.link_bandwidth_bps = bottleneck_bps;
      qc.validate();
      break;
    }
    case BottleneckKind::kRem: {
      RemQueueConfig qc = rem_queue;
      qc.link_bandwidth_bps = bottleneck_bps;
      qc.validate();
      break;
    }
  }
  faults.validate();
  require(faults.router_restarts.empty() || bottleneck == BottleneckKind::kPels,
          "router restarts need a PELS bottleneck (only the PELS AQM has a "
          "restartable feedback meter)");
}

std::vector<SimTime> staircase_starts(int flows, int per_step, SimTime step) {
  assert(flows > 0 && per_step > 0);
  std::vector<SimTime> starts;
  starts.reserve(static_cast<std::size_t>(flows));
  for (int i = 0; i < flows; ++i) starts.push_back((i / per_step) * step);
  return starts;
}

ScenarioConfig parking_lot_config(int long_flows, int cross_hop1, int cross_hop2) {
  require(long_flows >= 0 && cross_hop1 >= 0 && cross_hop2 >= 0,
          "parking-lot flow counts must be >= 0");
  ScenarioConfig cfg;
  cfg.pels_flows = long_flows + cross_hop1 + cross_hop2;
  cfg.tcp_flows = 0;
  cfg.edge_bps = 20e6;
  cfg.edge_queue_limit = 2000;
  cfg.pels_queue.router_id = 1;
  cfg.downstream_bps = {cfg.bottleneck_bps};
  const auto spans = [&cfg](int n, int first, int last) {
    cfg.hop_spans.insert(cfg.hop_spans.end(), static_cast<std::size_t>(n),
                         ScenarioConfig::HopSpan{first, last});
  };
  spans(long_flows, 0, 1);
  spans(cross_hop1, 0, 0);
  spans(cross_hop2, 1, 1);
  return cfg;
}

DumbbellScenario::DumbbellScenario(ScenarioConfig config)
    : cfg_(std::move(config)), sim_(cfg_.seed), topo_(sim_), rd_(cfg_.rd) {
  cfg_.validate();
  // Before any event is scheduled, so a heap-only baseline run really is
  // heap-only from the first timer onward.
  sim_.scheduler().set_wheel_enabled(cfg_.scheduler_wheel);

  // R1 .. R(hops+1): hop h runs from routers[h] to routers[h + 1].
  std::vector<Router*> routers;
  for (int r = 0; r <= cfg_.hops(); ++r) {
    std::string name = std::to_string(r + 1);
    name.insert(0, 1, 'R');
    routers.push_back(&topo_.add_router(std::move(name)));
  }
  Router& r1 = *routers[0];
  Router& r2 = *routers[1];
  pels_queues_.assign(static_cast<std::size_t>(cfg_.hops()), nullptr);

  const QueueFactory edge_queue = [this](double) {
    return std::make_unique<DropTailQueue>(cfg_.edge_queue_limit);
  };

  // Bottleneck R1 -> R2 carries the AQM under study; the reverse direction
  // (ACKs) is a plain generously-sized FIFO.
  const QueueFactory bottleneck_factory = [this](double bw) -> std::unique_ptr<QueueDisc> {
    switch (cfg_.bottleneck) {
      case BottleneckKind::kPels:
        return pels_queue_factory(0)(bw);
      case BottleneckKind::kRem: {
        RemQueueConfig qc = cfg_.rem_queue;
        qc.link_bandwidth_bps = bw;
        auto q = std::make_unique<RemQueue>(sim_.scheduler(), sim_.make_rng(0x4E4), qc);
        rem_queue_ = q.get();
        return q;
      }
      case BottleneckKind::kBestEffort:
        break;
    }
    BestEffortQueueConfig qc = cfg_.best_effort_queue;
    qc.link_bandwidth_bps = bw;
    auto q = std::make_unique<BestEffortQueue>(sim_.scheduler(), sim_.make_rng(0xBE), qc);
    best_effort_queue_ = q.get();
    return q;
  };
  Link& forward =
      topo_.add_link(r1, r2, cfg_.bottleneck_bps, cfg_.bottleneck_delay, bottleneck_factory);
  Link& reverse = topo_.add_link(r2, r1, cfg_.bottleneck_bps, cfg_.bottleneck_delay, edge_queue);
  bottleneck_ = &forward.queue();
  hop_links_.push_back(&forward);
  // Downstream hops: forward then reverse per hop, after links 0 and 1.
  for (int h = 1; h < cfg_.hops(); ++h) {
    const double bps = cfg_.downstream_bps[static_cast<std::size_t>(h - 1)];
    Router& from = *routers[h];
    Router& to = *routers[h + 1];
    Link& hop = topo_.add_link(from, to, bps, cfg_.bottleneck_delay, pels_queue_factory(h));
    topo_.add_link(to, from, bps, cfg_.bottleneck_delay, edge_queue);
    hop_links_.push_back(&hop);
  }
  if (cfg_.wireless_loss > 0.0) {
    forward.set_corruption(cfg_.wireless_loss, sim_.make_rng(0xA17));
  }

  // Schedule the fault plan. Brown-outs resize the PELS queue's capacity
  // share along with the wire (a real router sees its interface renegotiate);
  // the comparator queues keep their construction-time capacity, matching
  // set_bottleneck_bandwidth.
  if (!cfg_.faults.empty()) {
    FaultInjector(sim_).apply(cfg_.faults, forward, reverse, pels_queue());
  }

  // The comparator source sends the whole FGS prefix unpartitioned.
  PelsSourceConfig src_cfg = cfg_.source;
  src_cfg.partition = cfg_.bottleneck == BottleneckKind::kPels;
  if (cfg_.rd_aware_scaling) src_cfg.rd_scaling = &rd_;

  // Every PELS flow owns a slot of one structure-of-arrays FlowTable: its
  // controller state, gamma and pacing EWMA live there.
  flow_table_ = std::make_unique<FlowTable>(cfg_.mkc, src_cfg.gamma);
  flow_table_->reserve(static_cast<std::size_t>(cfg_.pels_flows));

  // Per-flow base-RTT diversity: flow k (PELS flows first, then TCP) takes
  // edge_delays[k % size] on both of its private edges.
  const auto edge_delay_for = [this](int flow_index) {
    if (cfg_.edge_delays.empty()) return cfg_.edge_delay;
    return cfg_.edge_delays[static_cast<std::size_t>(flow_index) %
                            cfg_.edge_delays.size()];
  };

  for (int i = 0; i < cfg_.pels_flows; ++i) {
    Host& src_host = topo_.add_host("src" + std::to_string(i));
    Host& dst_host = topo_.add_host("dst" + std::to_string(i));
    const SimTime edge_delay = edge_delay_for(i);
    // Enters before its first hop, leaves after its last.
    ScenarioConfig::HopSpan span{0, cfg_.hops() - 1};
    if (!cfg_.hop_spans.empty())
      span = cfg_.hop_spans[static_cast<std::size_t>(i) % cfg_.hop_spans.size()];
    topo_.connect(src_host, *routers[span.first_hop], cfg_.edge_bps, edge_delay, edge_queue);
    topo_.connect(*routers[span.last_hop + 1], dst_host, cfg_.edge_bps, edge_delay, edge_queue);

    CcKind kind = cfg_.bottleneck == BottleneckKind::kRem ? CcKind::kRem : CcKind::kMkc;
    if (!cfg_.cc_kinds.empty())
      kind = cfg_.cc_kinds[static_cast<std::size_t>(i) % cfg_.cc_kinds.size()];
    const FlowSlot slot = flow_table_->add_flow(kind);
    const auto flow = static_cast<FlowId>(i);
    sinks_.push_back(
        std::make_unique<PelsSink>(sim_, dst_host, flow, src_host.id(), src_cfg.video, rd_));
    sources_.push_back(std::make_unique<PelsSource>(sim_, src_host, flow, dst_host.id(),
                                                    *flow_table_, slot, src_cfg));
  }

  for (int i = 0; i < cfg_.tcp_flows; ++i) {
    Host& src_host = topo_.add_host("tcp" + std::to_string(i));
    Host& dst_host = topo_.add_host("tsink" + std::to_string(i));
    const SimTime edge_delay = edge_delay_for(cfg_.pels_flows + i);
    topo_.connect(src_host, r1, cfg_.edge_bps, edge_delay, edge_queue);
    topo_.connect(r2, dst_host, cfg_.edge_bps, edge_delay, edge_queue);
    const auto flow = static_cast<FlowId>(1000 + i);
    tcp_sinks_.push_back(std::make_unique<TcpSink>(dst_host, flow, src_host.id()));
    tcp_sources_.push_back(std::make_unique<TcpLikeSource>(sim_, src_host, flow, dst_host.id()));
  }

  topo_.compute_routes();
  topo_.reserve_runtime(static_cast<std::size_t>(cfg_.pels_flows + cfg_.tcp_flows));

  for (int i = 0; i < cfg_.pels_flows; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const SimTime at = idx < cfg_.start_times.size() ? cfg_.start_times[idx] : 0;
    // Offset each flow's frame clock by a sub-frame phase. Real flows are
    // never frame-synchronized; without this, every flow's red packets (the
    // frame suffix) land at the bottleneck in the same burst each period,
    // alternately overflowing and starving the shallow red band.
    const SimTime phase =
        (static_cast<SimTime>(i) * src_cfg.video.frame_period()) /
        std::max(1, cfg_.pels_flows);
    sources_[idx]->start(at + phase);
  }
  for (auto& tcp : tcp_sources_) tcp->start(0);

  sampler_ = std::make_unique<PeriodicTimer>(sim_.scheduler(), kSecond,
                                             [this] { sample_losses(); });
  sampler_->start();

  // Invariants before telemetry: the monitor's probes ("invariants.*") must
  // exist by the time the sampler freezes the registry.
  if (cfg_.invariants.enabled) setup_invariants();
  if (cfg_.telemetry.enabled) setup_telemetry();
}

QueueFactory DumbbellScenario::pels_queue_factory(int hop) {
  // Hop h's PELS queue stamps router id pels_queue.router_id + h.
  return [this, hop](double bw) {
    PelsQueueConfig qc = cfg_.pels_queue;
    qc.router_id += hop;
    qc.link_bandwidth_bps = bw;
    auto q = std::make_unique<PelsQueue>(sim_.scheduler(), qc);
    pels_queues_[static_cast<std::size_t>(hop)] = q.get();
    return q;
  };
}

void DumbbellScenario::setup_invariants() {
  invariants_ = std::make_unique<InvariantMonitor>(sim_.scheduler(), cfg_.invariants);

  // Violations are only actionable if they say *where in the fault schedule*
  // the run was when the property broke.
  invariants_->set_context(
      [this] { return describe_fault_position(cfg_.faults, sim_.now()); });

  // Packet conservation, per link: everything that ever arrived at the queue
  // is accounted for as dropped, still queued, on the wire, delivered, or
  // corrupted. Exact at every quiescent instant (see net/link.cpp — carrier
  // losses stay in the in-flight ring until resolved as corrupted).
  invariants_->add_check("net.packet_conservation", [this](std::string& detail) {
    for (std::size_t i = 0; i < topo_.link_count(); ++i) {
      const Link& link = topo_.link(i);
      const QueueDisc& q = link.queue();
      const std::uint64_t arrivals = q.counters().total_arrivals();
      const std::uint64_t accounted =
          q.counters().total_drops() + q.packet_count() + link.packets_in_flight() +
          link.packets_delivered() + link.packets_corrupted();
      if (arrivals != accounted) {
        std::ostringstream os;
        os << "link " << i << ": arrivals " << arrivals << " != drops "
           << q.counters().total_drops() << " + queued " << q.packet_count()
           << " + in_flight " << link.packets_in_flight() << " + delivered "
           << link.packets_delivered() << " + corrupted " << link.packets_corrupted()
           << " (= " << accounted << ")";
        detail = os.str();
        return false;
      }
    }
    return true;
  });

  // Per-band occupancy bounds at every PELS hop. With merge_fgs_bands the
  // yellow band absorbs the red budget and the red band stays empty;
  // red_limit still bounds band 2 in both modes.
  if (pels_queue() != nullptr) {
    invariants_->add_check("bottleneck.band_bounds", [this](std::string& detail) {
      for (std::size_t h = 0; h < pels_queues_.size(); ++h) {
        const PelsQueue& q = *pels_queues_[h];
        const PelsQueueConfig& qc = q.config();
        const std::string where = h == 0 ? "" : hop_name(h) + ": ";
        const std::size_t yellow_cap =
            qc.merge_fgs_bands ? qc.yellow_limit + qc.red_limit : qc.yellow_limit;
        const std::size_t caps[3] = {qc.green_limit, yellow_cap, qc.red_limit};
        for (std::size_t b = 0; b < 3; ++b) {
          const std::size_t n = q.band_packet_count(b);
          if (n > caps[b]) {
            std::ostringstream os;
            os << where << "band " << b << " holds " << n << " packets, limit " << caps[b];
            detail = os.str();
            return false;
          }
        }
        const std::size_t total = q.packet_count();
        const std::size_t cap =
            qc.green_limit + qc.yellow_limit + qc.red_limit + qc.internet_limit;
        if (total > cap) {
          std::ostringstream os;
          os << where << "total occupancy " << total << " packets exceeds capacity " << cap;
          detail = os.str();
          return false;
        }
      }
      return true;
    });
  }

  // Controller state inside its mathematical domain: γ is a fraction of the
  // FGS layer (eq. (4) keeps it in [0, 1]); MKC rates are non-negative and
  // finite by Lemma 5's stability region.
  invariants_->add_check("cc.gamma_bounds", [this](std::string& detail) {
    for (std::size_t i = 0; i < sources_.size(); ++i) {
      const double g = sources_[i]->gamma();
      const double r = sources_[i]->rate_bps();
      if (!(g >= 0.0 && g <= 1.0)) {
        std::ostringstream os;
        os << "flow " << i << ": gamma " << g << " outside [0, 1]";
        detail = os.str();
        return false;
      }
      if (!(std::isfinite(r) && r >= 0.0)) {
        std::ostringstream os;
        os << "flow " << i << ": rate " << r << " bps not finite and non-negative";
        detail = os.str();
        return false;
      }
    }
    return true;
  });

  // Liveness: the bottleneck must keep seeing arrivals. Opt-in because it is
  // scenario-specific — late start_times or an all-blackout plan legitimately
  // idle the bottleneck for many ticks.
  if (cfg_.invariants.progress_stall_ticks > 0) {
    invariants_->add_progress_check(
        "bottleneck.arrival_progress",
        [this] { return static_cast<double>(bottleneck_->counters().total_arrivals()); },
        cfg_.invariants.progress_stall_ticks);
  }

  invariants_->start();
}

void DumbbellScenario::setup_telemetry() {
  metrics_ = std::make_unique<MetricsRegistry>();
  for (std::size_t h = 0; h < hop_links_.size(); ++h) {
    const std::string prefix = hop_name(h);
    if (pels_queues_[h] != nullptr) pels_queues_[h]->register_metrics(*metrics_, prefix);
    hop_links_[h]->register_metrics(*metrics_, prefix + ".link");
  }
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    sources_[i]->register_metrics(*metrics_, "flow" + std::to_string(i));
  }
  for (std::size_t i = 0; i < sinks_.size(); ++i) {
    sinks_[i]->register_metrics(*metrics_, "sink" + std::to_string(i));
  }
  if (invariants_ != nullptr) {
    // Registered before the sampler exists — reserve_runtime freezes the
    // probe set. Sampled series make violation counts greppable in exports.
    InvariantMonitor* mon = invariants_.get();
    metrics_->add_probe("invariants.violations",
                        [mon] { return static_cast<double>(mon->violation_count()); });
    metrics_->add_probe("invariants.ticks",
                        [mon] { return static_cast<double>(mon->ticks()); });
  }
  // Created (and started) after every agent above: sampler ticks that share a
  // timestamp with control ticks then execute after them (scheduler insertion
  // order), so each snapshot observes post-update state — the determinism
  // contract in DESIGN.md "Telemetry".
  telemetry_ = std::make_unique<TimeSeriesSampler>(sim_.scheduler(), *metrics_,
                                                   cfg_.telemetry.period);
  telemetry_->reserve_runtime(cfg_.telemetry.max_samples);
  telemetry_->start();

  if (invariants_ != nullptr) {
    // Telemetry timestamps must be monotone (ISSUE: sampler rides the same
    // scheduler; a regression in tie-breaking would show up here first).
    TimeSeriesSampler* sampler = telemetry_.get();
    invariants_->add_monotone_check("telemetry.sample_times", [sampler] {
      const std::size_t n = sampler->sample_count();
      return n == 0 ? -1.0 : static_cast<double>(sampler->time_at(n - 1));
    });
  }
}

QueueDisc& DumbbellScenario::bottleneck_queue() { return *bottleneck_; }

double DumbbellScenario::video_capacity_bps() const {
  if (pels_queues_[0] != nullptr) return pels_queues_[0]->pels_capacity_bps();
  if (rem_queue_ != nullptr) return rem_queue_->video_capacity_bps();
  return best_effort_queue_->video_capacity_bps();
}

void DumbbellScenario::set_bottleneck_bandwidth(double bandwidth_bps) {
  hop_links_[0]->set_bandwidth_bps(bandwidth_bps);
  if (pels_queue() != nullptr) pels_queue()->set_link_bandwidth(bandwidth_bps);
  // The best-effort comparator keeps its construction-time capacity: it
  // exists only for fixed-loss PSNR comparisons.
}

void DumbbellScenario::run_until(SimTime t) { sim_.run_until(t); }

void DumbbellScenario::finish() {
  for (auto& sink : sinks_) sink->finalize_all();
}

void DumbbellScenario::sample_losses() {
  const ColorCounters& now = bottleneck_->counters();
  std::uint64_t fgs_arr = 0;
  std::uint64_t fgs_drop = 0;
  for (std::size_t c = 0; c < kNumColors; ++c) {
    const std::uint64_t arr = now.arrivals[c] - last_counters_.arrivals[c];
    const std::uint64_t drop = now.drops[c] - last_counters_.drops[c];
    const double rate =
        arr == 0 ? 0.0 : static_cast<double>(drop) / static_cast<double>(arr);
    loss_series_[c].add(sim_.now(), rate);
    const auto color = static_cast<Color>(c);
    if (color == Color::kYellow || color == Color::kRed) {
      fgs_arr += arr;
      fgs_drop += drop;
    }
  }
  fgs_loss_series_.add(sim_.now(), fgs_arr == 0 ? 0.0
                                                : static_cast<double>(fgs_drop) /
                                                      static_cast<double>(fgs_arr));
  last_counters_ = now;
}

}  // namespace pels
