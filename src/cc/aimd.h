// Rate-based AIMD controller (baseline).
//
// Additive increase of `increase_bps` per feedback epoch while the bottleneck
// reports spare capacity; one multiplicative decrease by `decrease_factor`
// per congestion episode (back-offs are spaced at least one RTT apart so a
// burst of positive-loss epochs counts as a single congestion event, as in
// TCP). The paper cites AIMD's large rate oscillation as the reason MKC is
// preferred for video (§5); the ablation bench quantifies that oscillation.
//
// Kernel contract (see cc/mkc.h): free inline kernels on caller-owned
// scalars, applied by FlowTable to the columns of a kAimd slot.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/time.h"

namespace pels {

struct AimdConfig {
  double increase_bps = 20e3;    // additive step per feedback epoch
  double decrease_factor = 0.5;  // rate *= factor on congestion
  double initial_rate_bps = 128e3;
  double min_rate_bps = 1e3;
  double max_rate_bps = 1e9;
  /// Min spacing of decreases (~RTT) until the first RTT sample replaces it.
  SimTime backoff_guard = from_millis(100);

  /// Throws std::invalid_argument naming the first field outside its domain.
  void validate() const;
};

/// One multiplicative decrease, unless the last one lies within `guard` of
/// `now` (the same congestion episode). last_decrease == kTimeNever means no
/// decrease yet.
inline void aimd_backoff_step(const AimdConfig& cfg, SimTime now, SimTime guard,
                              double& rate, SimTime& last_decrease,
                              std::int32_t& decreases) {
  if (last_decrease != kTimeNever && now - last_decrease < guard) return;
  rate = std::clamp(rate * cfg.decrease_factor, cfg.min_rate_bps, cfg.max_rate_bps);
  last_decrease = now;
  ++decreases;
}

/// Router feedback: back off on congestion (p > 0), else add increase_bps.
inline void aimd_feedback_step(const AimdConfig& cfg, double p, SimTime now, SimTime guard,
                               double& rate, SimTime& last_decrease,
                               std::int32_t& decreases) {
  if (p > 0.0) {
    aimd_backoff_step(cfg, now, guard, rate, last_decrease, decreases);
  } else {
    rate = std::clamp(rate + cfg.increase_bps, cfg.min_rate_bps, cfg.max_rate_bps);
  }
}

}  // namespace pels
