// SCReAM-lite media-rate controller (Johansson, RFC 8298 / EricssonResearch
// scream), interval port.
//
// A self-clocked media controller shapes a *reference rate* the layered
// source encodes against. The congestion signal is the sender-measured
// queuing delay qdelay = sRTT - minRTT against a target: below target the
// reference rate ramps (scaled by the remaining headroom so the approach is
// asymptotic, like ScreamV2Tx's ramp-up speed limit); above target it shrinks
// in proportion to the overshoot. Losses and ECN marks apply additional
// multiplicative back-offs, scaled by the observed fraction so a single
// marked packet does not crater a clean interval. The congestion window this
// rate implies (bytes in flight at the current sRTT) is exposed for
// inspection; the PELS pacing layer enforces the rate itself.
//
// Kernel contract (see cc/mkc.h): free inline kernels on caller-owned
// scalars, applied by FlowTable to the columns of a kScream slot.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/time.h"

namespace pels {

struct ScreamLiteConfig {
  SimTime qdelay_target = from_millis(60);
  double increase_bps = 60e3;   // ramp per tick at full headroom
  double decrease_gain = 0.5;   // proportional shrink per unit overshoot
  double loss_beta = 0.7;       // floor of the per-tick loss back-off factor
  double mark_beta = 0.9;       // floor of the per-tick ECN back-off factor
  double max_tick_growth = 1.5; // ramp cap (mirrors MKC's growth cap)
  double initial_rate_bps = 128e3;
  double min_rate_bps = 1e3;
  double max_rate_bps = 1e9;

  /// Throws std::invalid_argument naming the first field outside its domain.
  void validate() const;
};

/// RTT sample: maintain the propagation-delay baseline.
inline void scream_rtt_step(SimTime rtt, SimTime& min_rtt) {
  if (rtt > 0 && (min_rtt <= 0 || rtt < min_rtt)) min_rtt = rtt;
}

/// Loss back-off, scaled by the observed loss fraction and floored at
/// loss_beta: rate *= max(loss_beta, 1 - p).
inline void scream_loss_step(const ScreamLiteConfig& cfg, double p, double& rate) {
  if (p <= 0.0) return;
  rate = std::max(rate * std::max(cfg.loss_beta, 1.0 - p), cfg.min_rate_bps);
}

/// ECN back-off, gentler than loss: rate *= max(mark_beta, 1 - f).
inline void scream_mark_step(const ScreamLiteConfig& cfg, double f, double& rate) {
  if (f <= 0.0) return;
  rate = std::max(rate * std::max(cfg.mark_beta, 1.0 - f), cfg.min_rate_bps);
}

/// One control tick of reference-rate shaping against the qdelay target.
inline void scream_tick_step(const ScreamLiteConfig& cfg, SimTime srtt, SimTime min_rtt,
                             double& rate) {
  if (srtt <= 0 || min_rtt <= 0) return;  // no delay estimate yet
  const double qdelay = to_seconds(srtt - min_rtt);
  const double target = to_seconds(cfg.qdelay_target);
  if (qdelay < target) {
    const double headroom = 1.0 - qdelay / target;  // in (0, 1]
    const double next = rate + cfg.increase_bps * headroom;
    rate = std::clamp(std::min(next, rate * cfg.max_tick_growth), cfg.min_rate_bps,
                      cfg.max_rate_bps);
  } else {
    const double over = std::min(qdelay / target - 1.0, 1.0);
    rate = std::clamp(rate * (1.0 - cfg.decrease_gain * over), cfg.min_rate_bps,
                      cfg.max_rate_bps);
  }
}

}  // namespace pels
