// The PELS router queue (paper §4.1, §5.2): the primary AQM contribution.
//
// Shape (Fig. 4 left):
//
//   link <- WRR --+-- PELS group: strict priority [green | yellow | red]
//                 +-- Internet queue: FIFO (all non-PELS traffic)
//
// WRR isolates PELS traffic from cross traffic at a configurable bandwidth
// share; strict priority inside the PELS group concentrates congestion drops
// in the red band, then yellow, and only then green — the "optimal"
// preferential drop pattern of §3.2. The shape is fixed, so it is built
// flat: the three bands are inline rings, the Internet FIFO a DropTailQueue
// member, and the WRR split a two-class Drr2 fed the two head sizes. A
// packet reaches its band through one colour switch, with no virtual call
// or classifier in between.
//
// The queue also implements the router half of MKC congestion control
// (eq. (11)): every T time units it computes the PELS arrival rate R = S/T,
// packet loss p = (R - C)/R against the PELS capacity share C, increments
// its epoch z, and stamps the label (router id, z, p, p_fgs) into every
// departing PELS-flow packet, overriding another router's label only when
// reporting larger loss (max-min, most-congested-resource semantics) and
// always refreshing its own earlier label (see FeedbackLabel). The
// second metric p_fgs — the FGS-layer loss that drives the sender's gamma
// controller — is refreshed from exact drop counts over a longer window
// (see fgs_loss_window_intervals and DESIGN.md §4).
#pragma once

#include <array>

#include "net/queue_disc.h"
#include "queue/drop_tail.h"
#include "queue/drr.h"
#include "queue/feedback_meter.h"
#include "sim/scheduler.h"
#include "sim/timer.h"
#include "telemetry/metrics.h"
#include "util/ring_buffer.h"
#include "util/time.h"

namespace pels {

struct PelsQueueConfig {
  std::int32_t router_id = 0;
  double link_bandwidth_bps = 4e6;
  double pels_weight = 0.5;      // WRR share of the PELS group
  double internet_weight = 0.5;  // WRR share of the Internet queue
  SimTime feedback_interval = from_millis(30);  // T in eq. (11)
  /// The FGS-layer loss that drives gamma is measured from actual drop
  /// counts over this many feedback intervals (a longer window than T: drop
  /// counts per 30 ms are too quantized to steer gamma).
  int fgs_loss_window_intervals = 8;            // ~ 240 ms at T = 30 ms
  std::size_t green_limit = 100;  // packets; green demand never fills this
  /// Yellow sized to ~100 ms of PELS capacity: large enough to absorb frame
  /// pacing bursts, small enough that a transient backlog (gamma briefly too
  /// low) cannot act as a long-memory integrator destabilizing the gamma
  /// loop — excess spills as yellow loss, which gamma corrects (§4.2's
  /// "spill into the yellow queue" regime).
  std::size_t yellow_limit = 50;
  /// Red is intentionally shallow: its only job is absorbing drops, and its
  /// occupancy/service ratio sets the red queueing delay (paper Fig. 9 left,
  /// hundreds of ms). A deep red band would just delay packets that mostly
  /// get discarded by the decoder anyway.
  std::size_t red_limit = 12;
  std::size_t internet_limit = 100;
  /// QBSS-style two-priority mode (paper §2.1: Internet-2's scavenger
  /// service "does not support more than two priorities"): yellow and red
  /// share one FIFO band, so congestion tail-drops land on arrival order
  /// instead of strictly on the red suffix. Exists to quantify what the
  /// third priority buys (bench/ablation_two_priority).
  bool merge_fgs_bands = false;
  // Loss feedback is clamped to [loss_floor, loss_ceiling]; the floor bounds
  // how aggressively sources ramp when the link is nearly idle (p = (R-C)/R
  // diverges to -inf as R -> 0).
  double loss_floor = -20.0;
  double loss_ceiling = 0.999;
  /// DCTCP-style step marking: an arriving data packet is ECN-marked (CE)
  /// when its target band already holds at least this many packets. 0
  /// disables marking (the default — the paper's AQM signals congestion via
  /// the in-band feedback label, not ECN). Marks ride the existing band
  /// structure: a green packet is marked on green occupancy, FGS packets on
  /// their own band, Internet packets on the Internet FIFO — so the mark a
  /// flow sees measures the queue *it* is building, not aggregate backlog.
  std::size_t ecn_mark_threshold_pkts = 0;
  /// EWMA gain on the measured arrival rate R across feedback intervals
  /// (1.0 = no smoothing). At T = 30 ms an interval holds only tens of
  /// packets and quantization noise on R jitters source rates by a few
  /// percent — but smoothing is NOT the cure: the lag it adds interacts with
  /// MKC's multiplicative ramp (p is pinned at the floor while rate grows)
  /// and produces a large limit cycle. Leave at 1.0 unless sources cap their
  /// growth aggressively; lengthen feedback_interval to reduce noise instead.
  double feedback_rate_ewma = 1.0;

  /// Throws std::invalid_argument on out-of-range values (non-positive
  /// bandwidth/weights/intervals, loss bounds out of order, zero band
  /// limits, EWMA gain outside (0, 1]). Construction validates; call
  /// directly to fail fast before building a whole scenario.
  void validate() const;
};

class PelsQueue : public QueueDisc {
 public:
  PelsQueue(Scheduler& sched, PelsQueueConfig config);

  bool enqueue(Packet&& pkt) override;
  bool dequeue(Packet& out) override;
  std::size_t packet_count() const override { return group_packets_ + internet_.packet_count(); }
  std::int64_t byte_count() const override { return group_bytes_ + internet_.byte_count(); }

  /// PELS capacity share in bits/s: C = link * pels_weight / total_weight.
  double pels_capacity_bps() const { return pels_capacity_bps_; }

  /// Re-derives the capacity share after the underlying link rate changes
  /// (call together with Link::set_bandwidth_bps).
  void set_link_bandwidth(double bandwidth_bps);

  /// Router restart (fault injection): the feedback meter loses its epoch,
  /// counters, and smoothed rates, and the drop-count FGS loss window starts
  /// over. Queued packets survive (the reproduction models a control-plane
  /// reboot; the dataplane buffer is orthogonal and testable via link flaps).
  void restart();

  /// Latest computed feedback (p of eq. (11)); meaningful once epoch() >= 1.
  double current_loss() const { return meter_.loss(); }
  /// FGS-layer loss (overshoot over yellow+red demand); drives gamma.
  double current_fgs_loss() const { return meter_.fgs_loss(); }
  std::uint64_t epoch() const { return meter_.epoch(); }

  /// Occupancy of the priority bands (0 = green, 1 = yellow, 2 = red).
  /// Throws std::out_of_range for any other band.
  std::size_t band_packet_count(std::size_t band) const { return bands_.at(band).size(); }

  /// Counter views for per-class statistics (drop/arrival rates per colour).
  const ColorCounters& pels_group_counters() const { return group_counters_; }
  const ColorCounters& internet_counters() const { return internet_.counters(); }

  /// Cumulative packets ECN-marked on arrival (see ecn_mark_threshold_pkts).
  std::uint64_t ecn_marks() const { return ecn_marks_; }

  const PelsQueueConfig& config() const { return cfg_; }

  /// Registers this queue's instruments under `prefix.` (see DESIGN.md
  /// "Telemetry"): pull probes for per-colour occupancy, cumulative
  /// arrival/drop counters, and WRR credit; push gauges (p, p_fgs) plus an
  /// epoch counter refreshed in on_feedback_interval. Call once at setup;
  /// `registry` must outlive the queue.
  void register_metrics(MetricsRegistry& registry, const std::string& prefix);

 private:
  static constexpr std::size_t kBands = 3;

  /// Band of a PELS-group packet: green and acks 0, yellow 1, red 2 (1 in
  /// the two-priority mode, where red shares the yellow band; band 2 then
  /// stays empty, keeping band indices stable).
  std::size_t band_of(Color c) const {
    switch (c) {
      case Color::kGreen:
      case Color::kAck:
        return 0;
      case Color::kYellow:
        return 1;
      default:
        return cfg_.merge_fgs_bands ? 1 : 2;
    }
  }

  void on_feedback_interval();
  void update_feedback_telemetry();
  void maybe_mark_ecn(Packet& pkt);

  PelsQueueConfig cfg_;
  double pels_capacity_bps_;
  // The PELS group: strict-priority bands with per-band packet limits.
  // Rings, not std::deque: a deque allocates/frees a block for every ~4
  // Packets that pass through (see util/ring_buffer.h), which at population
  // scale dominates the per-packet cost (bench/many_flows asserts 0
  // allocs/packet). Each band grows to its high-water mark, not its limit.
  std::array<RingBuffer<Packet>, kBands> bands_;
  std::array<std::size_t, kBands> band_limits_;
  std::size_t group_packets_ = 0;
  std::int64_t group_bytes_ = 0;
  ColorCounters group_counters_;
  DropTailQueue internet_;
  Drr2 drr_;  // class 0 = PELS group, class 1 = Internet FIFO
  FeedbackMeter meter_;
  PeriodicTimer feedback_timer_;

  std::uint64_t ecn_marks_ = 0;

  // Drop-count-based FGS loss measurement (see fgs_loss_window_intervals):
  // arrival/drop counter anchors at the start of the current window.
  int intervals_since_fgs_update_ = 0;
  std::uint64_t fgs_arrivals_anchor_ = 0;
  std::uint64_t fgs_drops_anchor_ = 0;

  // Telemetry slots (null = telemetry off); refreshed per feedback interval.
  Gauge* g_loss_ = nullptr;
  Gauge* g_fgs_loss_ = nullptr;
  Counter* c_epochs_ = nullptr;
};

}  // namespace pels
