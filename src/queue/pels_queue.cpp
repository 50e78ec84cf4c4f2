#include "queue/pels_queue.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace pels {

void PelsQueueConfig::validate() const {
  if (!(link_bandwidth_bps > 0.0))
    throw std::invalid_argument("PelsQueueConfig: link_bandwidth_bps must be > 0");
  if (!(pels_weight > 0.0) || !(internet_weight > 0.0))
    throw std::invalid_argument("PelsQueueConfig: WRR weights must be > 0");
  if (feedback_interval <= 0)
    throw std::invalid_argument("PelsQueueConfig: feedback_interval must be > 0");
  if (fgs_loss_window_intervals <= 0)
    throw std::invalid_argument("PelsQueueConfig: fgs_loss_window_intervals must be > 0");
  if (green_limit == 0 || yellow_limit == 0 || red_limit == 0 || internet_limit == 0)
    throw std::invalid_argument("PelsQueueConfig: band limits must be >= 1 packet");
  if (!(loss_ceiling > 0.0 && loss_ceiling < 1.0))
    throw std::invalid_argument("PelsQueueConfig: loss_ceiling must be in (0, 1)");
  if (!(loss_floor < loss_ceiling))
    throw std::invalid_argument("PelsQueueConfig: loss_floor must be < loss_ceiling");
  if (!(feedback_rate_ewma > 0.0 && feedback_rate_ewma <= 1.0))
    throw std::invalid_argument("PelsQueueConfig: feedback_rate_ewma must be in (0, 1]");
}

namespace {
// Members (meter, feedback timer) are built from the config in the
// initializer list, so validation has to happen before any of them.
PelsQueueConfig validated(PelsQueueConfig cfg) {
  cfg.validate();
  return cfg;
}
}  // namespace

PelsQueue::PelsQueue(Scheduler& sched, PelsQueueConfig config)
    : cfg_(validated(std::move(config))),
      pels_capacity_bps_(cfg_.link_bandwidth_bps * cfg_.pels_weight /
                         (cfg_.pels_weight + cfg_.internet_weight)),
      // In two-priority (QBSS) mode the shared yellow band holds both limits.
      band_limits_{cfg_.green_limit,
                   cfg_.merge_fgs_bands ? cfg_.yellow_limit + cfg_.red_limit
                                        : cfg_.yellow_limit,
                   cfg_.red_limit},
      internet_(cfg_.internet_limit),
      drr_(cfg_.pels_weight, cfg_.internet_weight),
      meter_(cfg_.router_id, pels_capacity_bps_, cfg_.feedback_interval, cfg_.loss_floor,
             cfg_.loss_ceiling, cfg_.feedback_rate_ewma),
      feedback_timer_(sched, cfg_.feedback_interval, [this] { on_feedback_interval(); }) {
  feedback_timer_.start();
}

bool PelsQueue::enqueue(Packet&& pkt) {
  counters().count_arrival(pkt);
  // S accumulates everything offered to the PELS group (including packets
  // about to be dropped): eq. (11) measures demand, not admitted traffic.
  if (pkt.color != Color::kInternet) {
    const bool is_fgs = pkt.color == Color::kYellow || pkt.color == Color::kRed;
    meter_.add_bytes(pkt.size_bytes, is_fgs);
  }
  if (cfg_.ecn_mark_threshold_pkts > 0 && pkt.color != Color::kAck)
    maybe_mark_ecn(pkt);
  if (pkt.color == Color::kInternet) {
    if (internet_.enqueue(std::move(pkt))) return true;
    note_drop(pkt);  // DropTailQueue leaves a refused packet untouched
    return false;
  }
  group_counters_.count_arrival(pkt);
  const std::size_t b = band_of(pkt.color);
  if (bands_[b].size() >= band_limits_[b]) {
    group_counters_.count_drop(pkt);
    note_drop(pkt);
    return false;
  }
  group_bytes_ += pkt.size_bytes;
  ++group_packets_;
  bands_[b].push_back(std::move(pkt));
  return true;
}

void PelsQueue::maybe_mark_ecn(Packet& pkt) {
  // Step marking on the instantaneous occupancy of the band this packet is
  // headed for, checked before admission (a packet about to be tail-dropped
  // never carries a mark anywhere).
  const std::size_t occupancy = pkt.color == Color::kInternet
                                    ? internet_.packet_count()
                                    : bands_[band_of(pkt.color)].size();
  if (occupancy >= cfg_.ecn_mark_threshold_pkts) {
    pkt.ecn_marked = true;
    ++ecn_marks_;
  }
}

bool PelsQueue::dequeue(Packet& out) {
  // Strict priority inside the group: its head is the first non-empty band.
  std::size_t head_band = 0;
  while (head_band < kBands && bands_[head_band].empty()) ++head_band;
  const std::int64_t group_head =
      head_band < kBands ? bands_[head_band].front().size_bytes : Drr2::kIdle;
  const int served = drr_.select(group_head, internet_.head_bytes());
  if (served < 0) return false;
  if (served == 1) {
    internet_.dequeue(out);
    counters().count_departure(out);
    return true;
  }
  RingBuffer<Packet>& band = bands_[head_band];
  out = std::move(band.front());
  band.drop_front();
  group_bytes_ -= out.size_bytes;
  --group_packets_;
  group_counters_.count_departure(out);
  counters().count_departure(out);
  // Stamp feedback into every departing PELS-flow packet regardless of
  // colour (§5.1: green-only feedback would add delay; red/yellow reordering
  // is handled by epoch filtering at the source).
  meter_.stamp(out);
  return true;
}

void PelsQueue::set_link_bandwidth(double bandwidth_bps) {
  assert(bandwidth_bps > 0.0);
  cfg_.link_bandwidth_bps = bandwidth_bps;
  pels_capacity_bps_ =
      bandwidth_bps * cfg_.pels_weight / (cfg_.pels_weight + cfg_.internet_weight);
  meter_.set_capacity_bps(pels_capacity_bps_);
}

void PelsQueue::restart() {
  meter_.reset();
  intervals_since_fgs_update_ = 0;
  // Anchor the drop-count window at the *current* cumulative counters: the
  // counters are external observables and keep running, but the restarted
  // meter must not report pre-restart drops as this window's loss.
  const auto& c = counters();
  fgs_arrivals_anchor_ = c.arrivals[static_cast<std::size_t>(Color::kYellow)] +
                         c.arrivals[static_cast<std::size_t>(Color::kRed)];
  fgs_drops_anchor_ = c.drops[static_cast<std::size_t>(Color::kYellow)] +
                      c.drops[static_cast<std::size_t>(Color::kRed)];
}

void PelsQueue::register_metrics(MetricsRegistry& registry, const std::string& prefix) {
  // Pull probes: state the queue already keeps, read only at sample time.
  static constexpr struct {
    Color color;
    const char* occupancy;
    const char* arrivals;
    const char* drops;
  } kBands[] = {
      {Color::kGreen, ".green_pkts", ".green_arrivals", ".green_drops"},
      {Color::kYellow, ".yellow_pkts", ".yellow_arrivals", ".yellow_drops"},
      {Color::kRed, ".red_pkts", ".red_arrivals", ".red_drops"},
  };
  for (const auto& band : kBands) {
    const auto b = static_cast<std::size_t>(band.color);
    registry.add_probe(prefix + band.occupancy,
                       [this, b] { return static_cast<double>(band_packet_count(b)); });
    registry.add_probe(prefix + band.arrivals, [this, b] {
      return static_cast<double>(counters().arrivals[b]);
    });
    registry.add_probe(prefix + band.drops, [this, b] {
      return static_cast<double>(counters().drops[b]);
    });
  }
  registry.add_probe(prefix + ".internet_pkts",
                     [this] { return static_cast<double>(internet_.packet_count()); });
  registry.add_probe(prefix + ".internet_drops", [this] {
    return static_cast<double>(
        counters().drops[static_cast<std::size_t>(Color::kInternet)]);
  });
  registry.add_probe(prefix + ".pels_arrivals", [this] {
    const auto& c = counters();
    return static_cast<double>(c.arrivals[static_cast<std::size_t>(Color::kGreen)] +
                               c.arrivals[static_cast<std::size_t>(Color::kYellow)] +
                               c.arrivals[static_cast<std::size_t>(Color::kRed)]);
  });
  registry.add_probe(prefix + ".ecn_marks",
                     [this] { return static_cast<double>(ecn_marks_); });
  registry.add_probe(prefix + ".wrr_pels_credit",
                     [this] { return static_cast<double>(drr_.deficit(0)); });
  registry.add_probe(prefix + ".wrr_internet_credit",
                     [this] { return static_cast<double>(drr_.deficit(1)); });
  // Push slots: the feedback loop refreshes these once per interval T.
  g_loss_ = &registry.gauge(prefix + ".p");
  g_fgs_loss_ = &registry.gauge(prefix + ".p_fgs");
  c_epochs_ = &registry.counter(prefix + ".feedback_epochs");
}

void PelsQueue::on_feedback_interval() {
  meter_.close_interval();
  update_feedback_telemetry();
  // Every few intervals, refresh the gamma-facing FGS loss from exact drop
  // counts: p_fgs = FGS drops / FGS arrivals over the window. The injection
  // drives the stamped labels for one epoch and the responsive overshoot
  // estimate resumes until the next refresh — the dynamics the paper figures
  // (and tier-1 convergence tests) are tuned to (see DESIGN.md §feedback).
  if (++intervals_since_fgs_update_ < cfg_.fgs_loss_window_intervals) return;
  intervals_since_fgs_update_ = 0;
  const auto& c = counters();
  const auto y = static_cast<std::size_t>(Color::kYellow);
  const auto r = static_cast<std::size_t>(Color::kRed);
  const std::uint64_t arrivals = c.arrivals[y] + c.arrivals[r];
  const std::uint64_t drops = c.drops[y] + c.drops[r];
  const std::uint64_t d_arr = arrivals - fgs_arrivals_anchor_;
  const std::uint64_t d_drop = drops - fgs_drops_anchor_;
  fgs_arrivals_anchor_ = arrivals;
  fgs_drops_anchor_ = drops;
  const double p_fgs =
      d_arr > 0 ? static_cast<double>(d_drop) / static_cast<double>(d_arr) : 0.0;
  meter_.set_fgs_loss(p_fgs);
  // The drop-count injection just replaced the label-facing FGS loss; keep
  // the telemetry gauge in sync with what departing packets will carry.
  if (g_fgs_loss_ != nullptr) g_fgs_loss_->set(meter_.fgs_loss());
}

void PelsQueue::update_feedback_telemetry() {
  if (c_epochs_ == nullptr) return;  // telemetry off
  c_epochs_->inc();
  g_loss_->set(meter_.loss());
  g_fgs_loss_->set(meter_.fgs_loss());
}

}  // namespace pels
