// TFRC-lite: simplified equation-based rate control (Floyd & Padhye 2000).
//
// Tracks a smoothed loss-event rate from receiver-measured interval losses
// and sets the sending rate to the simplified TCP-friendly response function
//
//   r = s * sqrt(3/2) / (RTT * sqrt(p))
//
// capped by a slow-start-style doubling when no loss has been observed.
// Included as the second non-MKC controller for the CC-independence ablation
// (paper §5 states PELS works with "any congestion control including TFRC").
//
// Kernel contract (see cc/mkc.h): free inline kernels on caller-owned
// scalars, applied by FlowTable to the columns of a kTfrc slot.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/time.h"

namespace pels {

struct TfrcLiteConfig {
  double packet_size_bytes = 500.0;  // s in the response function
  double initial_rate_bps = 128e3;
  double min_rate_bps = 1e3;
  double max_rate_bps = 1e9;
  double loss_ewma = 0.25;  // smoothing gain for the loss-event rate
  SimTime initial_rtt = from_millis(100);

  /// Throws std::invalid_argument naming the first field outside its domain.
  void validate() const;
};

/// Rate from the response function; the p -> 0 divergence is guarded by the
/// configured rate ceiling.
inline void tfrc_recompute(const TfrcLiteConfig& cfg, double smoothed_loss, SimTime rtt,
                           double& rate) {
  const double p = std::max(smoothed_loss, 1e-6);
  const double rtt_sec = to_seconds(rtt);
  const double r = cfg.packet_size_bytes * 8.0 * std::sqrt(1.5) / (rtt_sec * std::sqrt(p));
  rate = std::clamp(r, cfg.min_rate_bps, cfg.max_rate_bps);
}

/// Router feedback only gates slow-start: with no loss event yet and spare
/// capacity reported (p <= 0), probe upward multiplicatively, as TFRC does
/// before its first loss event.
inline void tfrc_feedback_step(const TfrcLiteConfig& cfg, double p, std::int32_t loss_seen,
                               double& rate) {
  if (loss_seen == 0 && p <= 0.0) rate = std::min(rate * 1.5, cfg.max_rate_bps);
}

/// One control interval's loss fraction. The EWMA folds in every interval,
/// loss-free ones included, so the estimate decays while the path is clean.
inline void tfrc_loss_step(const TfrcLiteConfig& cfg, double p, SimTime rtt,
                           double& smoothed_loss, std::int32_t& loss_seen, double& rate) {
  p = std::clamp(p, 0.0, 1.0);
  if (p > 0.0) loss_seen = 1;
  smoothed_loss = (1.0 - cfg.loss_ewma) * smoothed_loss + cfg.loss_ewma * p;
  if (loss_seen != 0) tfrc_recompute(cfg, smoothed_loss, rtt, rate);
}

/// RTT sample: a positive one replaces the estimate; after the first loss
/// event the rate follows it.
inline void tfrc_rtt_step(const TfrcLiteConfig& cfg, SimTime sample, double smoothed_loss,
                          std::int32_t loss_seen, SimTime& rtt, double& rate) {
  if (sample > 0) rtt = sample;
  if (loss_seen != 0) tfrc_recompute(cfg, smoothed_loss, rtt, rate);
}

}  // namespace pels
