#include "pels/pels_source.h"

#include <algorithm>
#include <cassert>

namespace pels {

namespace {

constexpr int kRdWindowFrames = 8;   // R-D scaling lookahead, frames
constexpr double kSrttGain = 0.125;  // RFC 6298's alpha
// Minimum FGS bytes sent per measurement window for a loss sample to count.
constexpr std::uint64_t kMinMeasuredBytes = 2000;

}  // namespace

PelsSource::PelsSource(Simulation& sim, Host& host, FlowId flow, NodeId dst,
                       FlowTable& table, FlowSlot slot, PelsSourceConfig config)
    : sim_(sim),
      host_(host),
      flow_(flow),
      dst_(dst),
      table_(table),
      slot_(slot),
      cfg_(std::move(config)),
      frame_timer_(sim.scheduler(), cfg_.video.frame_period(), [this] { on_frame_clock(); }),
      control_timer_(sim.scheduler(), cfg_.control_interval, [this] { on_control_clock(); }) {
  assert(table_.is_live(slot_) && "PelsSource needs an allocated FlowTable slot");
  host_.register_agent(flow_, this);
}

PelsSource::~PelsSource() {
  stop();
  host_.unregister_agent(flow_);
}

void PelsSource::start(SimTime at) {
  sim_.at(at, [this] {
    // Fire the first frame immediately, then every frame period.
    last_label_at_ = sim_.now();  // watchdog counts from the first send
    on_frame_clock();
    frame_timer_.start();
    control_timer_.start();
  });
}

void PelsSource::stop() {
  frame_timer_.stop();
  control_timer_.stop();
  if (pace_event_ != 0) {
    sim_.scheduler().cancel(pace_event_);
    pace_event_ = 0;
  }
  send_buffer_.clear();
}

void PelsSource::on_frame_clock() {
  if (next_frame_ >= cfg_.video.total_frames) {
    // The coded sequence loops, as the paper's long simulations require.
    next_frame_ = 0;
  }
  const std::int64_t cap =
      cfg_.frame_sizes ? cfg_.frame_sizes->fgs_frame_bytes(next_frame_) : -1;
  FramePlan plan;
  if (cfg_.rd_scaling != nullptr) {
    // Receding-horizon constant-quality scaling: allocate the window's FGS
    // budget by max-min PSNR and spend this frame's share.
    const RdAllocator allocator(*cfg_.rd_scaling);
    const double frame_budget = rate_bps() / 8.0 * to_seconds(cfg_.video.frame_period());
    const auto total = static_cast<std::int64_t>(
        (frame_budget - static_cast<double>(cfg_.video.base_layer_bytes)) * kRdWindowFrames);
    const std::int64_t frame_cap = cap >= 0 ? cap : cfg_.video.max_fgs_bytes();
    const auto alloc = allocator.allocate(next_frame_, kRdWindowFrames,
                                          std::max<std::int64_t>(total, 0), frame_cap);
    plan = plan_frame_bytes(cfg_.video, next_frame_, alloc[0], gamma(),
                            cfg_.partition);
  } else {
    plan = plan_frame(cfg_.video, next_frame_, rate_bps(), gamma(), cfg_.partition, cap);
  }
  ++next_frame_;
  packetize_into(cfg_.video, plan, frame_packets_);
  if (frame_packets_.empty()) return;

  for (auto& pkt : frame_packets_) {
    pkt.flow = flow_;
    pkt.seq = next_seq_++;
    pkt.src = host_.id();
    pkt.dst = dst_;
    pkt.uid = (static_cast<std::uint64_t>(flow_) << 40) | pkt.seq;
    send_buffer_.push_back(std::move(pkt));
  }
  if (pace_event_ == 0) pace_next();
}

void PelsSource::pace_next() {
  pace_event_ = 0;
  if (send_buffer_.empty()) return;
  Packet pkt = send_buffer_.pop_front();
  // Space packets at a lightly smoothed controller rate: the raw rate
  // carries per-epoch measurement noise, and pacing that follows it beat-
  // for-beat makes the arrival process bursty at the bottleneck (extra
  // tail drops beyond the fluid overshoot). The EWMA time constant is a few
  // hundred packets — slow enough to filter epoch noise, fast enough to
  // track joins and back-offs.
  const double rate = std::max(rate_bps(), 1.0);
  double& paced = table_.paced_rate_ref(slot_);
  paced = paced <= 0.0 ? rate : 0.98 * paced + 0.02 * rate;
  const SimTime spacing = transmission_time(pkt.size_bytes, paced);
  transmit(std::move(pkt));
  pace_event_ = sim_.after(spacing, [this] { pace_next(); });
}

void PelsSource::transmit(Packet pkt) {
  pkt.created_at = sim_.now();
  if (cfg_.tcm_marking) {
    // Conformance-based recolouring (§2.1 comparator): the marker tracks a
    // CIR of ~3/4 of the current sending rate unless configured explicitly,
    // so roughly the PELS-equivalent share is green+yellow — just aimed at
    // the wrong bytes.
    const bool track_rate = cfg_.tcm.cir_bps <= 0.0;
    if (!tcm_marker_) {
      TcmConfig tc = cfg_.tcm;
      if (track_rate) tc.cir_bps = 0.75 * rate_bps();
      tcm_marker_ = std::make_unique<SrTcmMarker>(tc);
    } else if (track_rate) {
      tcm_marker_->set_cir(0.75 * rate_bps());
    }
    pkt.color = tcm_marker_->mark(pkt.size_bytes, sim_.now());
  }
  ++sent_[static_cast<std::size_t>(pkt.color)];
  if (pkt.color == Color::kYellow || pkt.color == Color::kRed) {
    sent_fgs_bytes_ += static_cast<std::uint64_t>(pkt.size_bytes);
    send_history_.push_back({sim_.now(), sent_fgs_bytes_});
    // Keep a few seconds of history: lookups go back at most one RTT.
    const SimTime horizon = sim_.now() - 5 * kSecond;
    while (send_history_.size() > 1 && send_history_.at(1).first <= horizon)
      send_history_.pop_front();
  }
  host_.send(std::move(pkt));
}

void PelsSource::on_packet(const Packet& pkt) {
  if (!pkt.ack) return;
  handle_ack(*pkt.ack);
}

void PelsSource::handle_ack(const AckInfo& ack) {
  // RTT from green/yellow ACKs only: red packets sit in the starved band for
  // hundreds of ms by design, which would poison the estimate used to align
  // loss measurements.
  if (ack.data_color == Color::kGreen || ack.data_color == Color::kYellow) {
    const SimTime sample = sim_.now() - ack.data_created_at;
    if (sample > 0) {
      srtt_ = srtt_ == 0 ? sample
                         : static_cast<SimTime>((1.0 - kSrttGain) * static_cast<double>(srtt_) +
                                                kSrttGain * static_cast<double>(sample));
      table_.apply_rtt(slot_, srtt_);
    }
  }

  recv_fgs_bytes_ = std::max(recv_fgs_bytes_, ack.recv_fgs_bytes);
  recv_marked_ = std::max(recv_marked_, ack.recv_marked);
  recv_total_ =
      std::max(recv_total_, ack.recv_green + ack.recv_yellow + ack.recv_red);

  // Freshness rule (§5.2): consume a router's feedback at most once per
  // epoch; stale/reordered labels (red-queue delays) are ignored. A backward
  // epoch jump beyond kEpochRestartGap is a router restart, not staleness —
  // the filter re-anchors at the reborn router's epoch instead of staying
  // deaf until it counts past the pre-restart value.
  if (ack.echoed.valid) {
    const auto router = static_cast<std::size_t>(ack.echoed.router_id);
    if (router >= epoch_seen_.size()) epoch_seen_.resize(router + 1, 0);
    std::uint64_t& last = epoch_seen_[router];
    if (epoch_is_fresh(last, ack.echoed.epoch)) {
      last = ack.echoed.epoch;
      table_.apply_feedback(slot_, ack.echoed.loss, sim_.now());
      latest_router_fgs_loss_ = ack.echoed.fgs_loss;
      last_label_at_ = sim_.now();
      silent_ = false;
      ++consumed_[ack.echoed.router_id];
    }
  }
}

std::uint64_t PelsSource::feedback_consumed(std::int32_t router) const {
  auto it = consumed_.find(router);
  return it == consumed_.end() ? 0 : it->second;
}

std::int32_t PelsSource::governing_router() const {
  std::int32_t best = -1;
  std::uint64_t best_count = 0;
  for (const auto& [router, count] : consumed_) {
    if (count > best_count) {
      best = router;
      best_count = count;
    }
  }
  return best;
}

std::uint64_t PelsSource::sent_fgs_bytes_at(SimTime t) const {
  // Last history entry with timestamp <= t (entries are time-ordered):
  // binary search for the first entry after t.
  std::size_t lo = 0;
  std::size_t hi = send_history_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (send_history_.at(mid).first <= t) lo = mid + 1;
    else hi = mid;
  }
  return lo == 0 ? 0 : send_history_.at(lo - 1).second;
}

void PelsSource::on_control_clock() {
  // Feedback-staleness watchdog: no fresh router label for feedback_timeout
  // means the loop is open (ACK blackout, dead or restarted bottleneck).
  // Signal the controller to decay and, on entry, forget the epoch filter so
  // a restarted router's labels are accepted whatever their epoch.
  if (cfg_.feedback_timeout > 0 &&
      sim_.now() - last_label_at_ >= cfg_.feedback_timeout) {
    if (!silent_) {
      silent_ = true;
      epoch_seen_.clear();
    }
    ++silent_intervals_;
    table_.apply_silence(slot_);
  }

  // Gamma is driven by the router-reported FGS-layer loss (§4.3: p_i(k) "is
  // coupled with congestion control and should be provided by its feedback
  // loop"). Receiver-side byte counting cannot serve here: surviving red
  // packets sit in the starved red band for seconds, so their arrivals lag
  // the sends they must be matched against and the estimate limit-cycles.
  // While feedback is silent gamma freezes: iterating eq. (4) on a stale
  // sample just walks gamma away from any real operating point.
  if (cfg_.partition && !silent_) {
    table_.apply_gamma(slot_, std::clamp(latest_router_fgs_loss_, 0.0, 1.0));
  }

  // Receiver-measured FGS loss over the last control interval (sent counter
  // aligned one smoothed RTT back so in-flight packets are not counted as
  // lost). Feeds loss-driven controllers (TFRC) and the reporting series.
  // If srtt grew by more than a control interval since the last tick, the
  // aligned sent counter can step backwards; skip the sample rather than
  // underflow (the next tick realigns).
  const std::uint64_t sent_aligned =
      std::max(sent_fgs_bytes_at(sim_.now() - srtt_), meas_sent_anchor_);
  const std::uint64_t d_sent = sent_aligned - meas_sent_anchor_;
  const std::uint64_t d_recv = recv_fgs_bytes_ - meas_recv_anchor_;
  if (d_sent >= kMinMeasuredBytes) {
    double p = 1.0 - static_cast<double>(d_recv) / static_cast<double>(d_sent);
    p = std::clamp(p, 0.0, 1.0);
    last_measured_loss_ = p;
    meas_sent_anchor_ = sent_aligned;
    meas_recv_anchor_ = recv_fgs_bytes_;
    table_.apply_loss_interval(slot_, p, sim_.now());
  }
  // ECN mark fraction over the interval (marking-driven controllers — REM).
  const std::uint64_t d_total = recv_total_ - total_anchor_;
  if (d_total > 0) {
    const std::uint64_t d_marked = recv_marked_ - mark_anchor_;
    table_.apply_mark_fraction(
        slot_, static_cast<double>(d_marked) / static_cast<double>(d_total), sim_.now());
    total_anchor_ = recv_total_;
    mark_anchor_ = recv_marked_;
  }

  // Clocked controllers (CUBIC, Swift, SCReAM-lite) run their periodic update
  // after the interval's event deliveries, so the tick sees this interval's
  // loss/mark reaction already applied.
  table_.apply_control_tick(slot_, sim_.now());

  rate_series_.add(sim_.now(), rate_bps());
  gamma_series_.add(sim_.now(), gamma());
  loss_series_.add(sim_.now(), last_measured_loss_);
}

void PelsSource::register_metrics(MetricsRegistry& registry, const std::string& prefix) {
  table_.register_slot_metrics(registry, prefix, slot_);
  if (cfg_.partition) {
    registry.add_probe(prefix + ".gamma", [this] { return gamma(); });
    registry.add_probe(prefix + ".gamma_updates",
                       [this] { return static_cast<double>(table_.gamma_updates(slot_)); });
  }
  registry.add_probe(prefix + ".measured_loss", [this] { return last_measured_loss_; });
  registry.add_probe(prefix + ".router_fgs_loss", [this] { return latest_router_fgs_loss_; });
  registry.add_probe(prefix + ".feedback_silent", [this] { return silent_ ? 1.0 : 0.0; });
  registry.add_probe(prefix + ".silent_intervals",
                     [this] { return static_cast<double>(silent_intervals_); });
  registry.add_probe(prefix + ".fgs_bytes_sent",
                     [this] { return static_cast<double>(sent_fgs_bytes_); });
  registry.add_probe(prefix + ".frames_sent",
                     [this] { return static_cast<double>(next_frame_); });
  registry.add_probe(prefix + ".srtt_seconds", [this] { return to_seconds(srtt_); });
}

}  // namespace pels
