// Swift/TIMELY delay-based controller (Kumar et al. SIGCOMM 2020; Mittal et
// al. SIGCOMM 2015), interval port.
//
// Steers by the queuing-delay component of the smoothed RTT the PELS source
// already measures: qdelay = sRTT - minRTT. Below `q_low` the path is
// considered empty and the rate increases additively regardless of trend;
// above `q_high` the rate is cut multiplicatively in proportion to the
// overshoot (Swift's target-delay MD). In between, the RTT *gradient*
// decides (TIMELY): a falling or flat RTT earns additive increase, a rising
// RTT a decrease proportional to the normalized gradient.
//
// Kernel contract (see cc/mkc.h): one free inline kernel on caller-owned
// scalars, applied per control tick by FlowTable to the columns of a kSwift
// slot.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/time.h"

namespace pels {

struct SwiftConfig {
  SimTime q_low = from_millis(5);     // qdelay floor: below, always increase
  SimTime q_high = from_millis(50);   // qdelay ceiling: above, always decrease
  /// Normalization scale for the RTT gradient (TIMELY divides the raw RTT
  /// difference by a delay constant to get a dimensionless gradient).
  SimTime gradient_scale = from_millis(50);
  double ai_bps = 50e3;   // additive increase per tick
  double md_gain = 0.8;   // multiplicative-decrease gain on overshoot/gradient
  double initial_rate_bps = 128e3;
  double min_rate_bps = 1e3;
  double max_rate_bps = 1e9;

  /// Throws std::invalid_argument naming the first field outside its domain.
  void validate() const;
};

/// One control tick. Needs two RTT memories: the previous tick's sample (for
/// the gradient) and the running minimum (the propagation-delay baseline).
/// The first sample only primes them.
inline void swift_tick_step(const SwiftConfig& cfg, SimTime srtt, SimTime& prev_rtt,
                            SimTime& min_rtt, double& rate) {
  if (srtt <= 0) return;  // no RTT sample yet: nothing to steer by
  if (min_rtt <= 0 || srtt < min_rtt) min_rtt = srtt;
  if (prev_rtt <= 0) {
    prev_rtt = srtt;
    return;
  }
  const double grad =
      to_seconds(srtt - prev_rtt) / to_seconds(cfg.gradient_scale);
  prev_rtt = srtt;
  const SimTime qdelay = srtt - min_rtt;
  if (qdelay < cfg.q_low) {
    rate = std::min(rate + cfg.ai_bps, cfg.max_rate_bps);
    return;
  }
  if (qdelay > cfg.q_high) {
    const double over = 1.0 - to_seconds(cfg.q_high) / to_seconds(qdelay);
    rate = std::max(rate * (1.0 - cfg.md_gain * over), cfg.min_rate_bps);
    return;
  }
  if (grad <= 0.0) {
    rate = std::min(rate + cfg.ai_bps, cfg.max_rate_bps);
  } else {
    rate = std::max(rate * (1.0 - cfg.md_gain * std::min(grad, 1.0)), cfg.min_rate_bps);
  }
}

}  // namespace pels
