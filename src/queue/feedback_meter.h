// MKC router feedback meter (paper eq. (11)), shared by the PELS queue and
// the best-effort comparator queue:
//
//   every T units:  R = S/T,  p = (R - C)/R,  z = z + 1,  S = 0
//
// S accumulates the bytes of arriving video-class packets (demand, including
// packets about to be dropped); p is clamped to [floor, ceiling] because
// (R - C)/R diverges to -inf as R -> 0. The label (router id, z, p, p_fgs)
// is stamped into departing packets: a label from a *different* router is
// overridden only when reporting larger loss (max-min semantics), while this
// router's own label is always refreshed to the current epoch so a cleared
// bottleneck can revise its report downward (see FeedbackLabel).
//
// Two loss metrics are computed per epoch (feedback is queue-specific, §5.2):
//   * aggregate loss  p     = (R - C) / R          -> drives MKC (eq. (8))
//   * FGS-layer loss  p_fgs = (R - C) / R_fgs      -> drives gamma (eq. (4))
// The second reflects that all congestion drops land in the FGS layer (the
// green base layer is protected by strict priority), so the loss *experienced
// by the FGS layer* is the total overshoot divided by FGS demand only.
//
// The measured rate R is smoothed with a configurable EWMA across intervals:
// at T = 30 ms a 2 mb/s class carries only ~15 packets per interval, and the
// resulting quantization noise would otherwise jitter every source's rate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "net/packet.h"
#include "util/time.h"

namespace pels {

class FeedbackMeter {
 public:
  FeedbackMeter(std::int32_t router_id, double capacity_bps, SimTime interval,
                double loss_floor = -20.0, double loss_ceiling = 0.999,
                double rate_ewma = 0.5)
      : router_id_(router_id),
        capacity_bps_(capacity_bps),
        interval_(interval),
        loss_floor_(loss_floor),
        loss_ceiling_(loss_ceiling),
        rate_ewma_(rate_ewma) {
    // Sources index their per-router epoch filter by id.
    if (router_id < 0) throw std::invalid_argument("FeedbackMeter: router_id must be >= 0");
  }

  /// Accumulates arriving demand (call for every video-class arrival).
  /// `is_fgs` marks yellow/red enhancement-layer packets.
  void add_bytes(std::int64_t bytes, bool is_fgs) {
    interval_bytes_ += bytes;
    if (is_fgs) interval_fgs_bytes_ += bytes;
  }

  /// Closes the current interval: computes p and p_fgs, bumps the epoch,
  /// resets the byte counters.
  void close_interval() {
    const double t_sec = to_seconds(interval_);
    const double rate = static_cast<double>(interval_bytes_) * 8.0 / t_sec;
    const double fgs_rate = static_cast<double>(interval_fgs_bytes_) * 8.0 / t_sec;
    if (epoch_ == 0) {
      smoothed_rate_ = rate;
      smoothed_fgs_rate_ = fgs_rate;
    } else {
      smoothed_rate_ = (1.0 - rate_ewma_) * smoothed_rate_ + rate_ewma_ * rate;
      smoothed_fgs_rate_ =
          (1.0 - rate_ewma_) * smoothed_fgs_rate_ + rate_ewma_ * fgs_rate;
    }
    const double overshoot = smoothed_rate_ - capacity_bps_;
    loss_ = smoothed_rate_ <= 0.0
                ? loss_floor_
                : std::clamp(overshoot / smoothed_rate_, loss_floor_, loss_ceiling_);
    fgs_loss_estimate_ = smoothed_fgs_rate_ <= 0.0
                             ? loss_floor_
                             : std::clamp(overshoot / smoothed_fgs_rate_, loss_floor_,
                                          loss_ceiling_);
    // An injection (set_fgs_loss) drives labels only for the epoch it was
    // reported in; the estimate takes over again here.
    fgs_loss_ = fgs_loss_estimate_;
    ++epoch_;
    interval_bytes_ = 0;
    interval_fgs_bytes_ = 0;
  }

  /// Stamps the current label into a packet (no-op before the first interval
  /// closes, so uninitialized feedback never overrides a real label).
  void stamp(Packet& pkt) const {
    if (epoch_ == 0) return;
    pkt.feedback.maybe_override(router_id_, epoch_, loss_, fgs_loss_);
  }

  /// Updates the capacity the loss is computed against (link rate changes).
  void set_capacity_bps(double capacity_bps) { capacity_bps_ = capacity_bps; }

  /// Router-restart semantics (fault injection): forgets the epoch, the
  /// interval counters, the smoothed rate estimates, and any injected FGS
  /// loss, exactly as a rebooted router losing its RAM would. Stamping
  /// resumes at epoch 1 after the next close_interval(); consumers see a
  /// large backward epoch jump (see kEpochRestartGap in net/packet.h).
  void reset() {
    interval_bytes_ = 0;
    interval_fgs_bytes_ = 0;
    smoothed_rate_ = 0.0;
    smoothed_fgs_rate_ = 0.0;
    loss_ = 0.0;
    fgs_loss_ = 0.0;
    fgs_loss_estimate_ = 0.0;
    epoch_ = 0;
  }

  /// Replaces the rate-derived FGS loss with an externally measured value.
  /// The PELS queue uses this to report *actual* FGS drop fractions (exact,
  /// integer drop counts over a longer window) instead of the noisy
  /// overshoot-over-FGS-demand estimate: the overshoot is a small difference
  /// of two large, quantization-noisy rates, and gamma driven by it hunts.
  ///
  /// Ordering contract (tested in pels_queue_test): call this *after*
  /// close_interval(). The injection drives the stamped labels for the epoch
  /// it was reported in and reverts to the overshoot estimate at the next
  /// close_interval(), so the responsive fluid estimate steers gamma between
  /// exact refreshes: the paper-figure dynamics (see DESIGN.md §feedback).
  void set_fgs_loss(double p_fgs) { fgs_loss_ = p_fgs; }

  double loss() const { return loss_; }
  double fgs_loss() const { return fgs_loss_; }
  /// The rate-overshoot FGS loss estimate of the last interval, regardless
  /// of whether an injected value currently drives fgs_loss().
  double fgs_loss_estimate() const { return fgs_loss_estimate_; }
  std::uint64_t epoch() const { return epoch_; }
  double capacity_bps() const { return capacity_bps_; }
  SimTime interval() const { return interval_; }

 private:
  std::int32_t router_id_;
  double capacity_bps_;
  SimTime interval_;
  double loss_floor_;
  double loss_ceiling_;
  double rate_ewma_;
  std::int64_t interval_bytes_ = 0;
  std::int64_t interval_fgs_bytes_ = 0;
  double smoothed_rate_ = 0.0;
  double smoothed_fgs_rate_ = 0.0;
  double loss_ = 0.0;
  double fgs_loss_ = 0.0;
  double fgs_loss_estimate_ = 0.0;
  std::uint64_t epoch_ = 0;
};

}  // namespace pels
