// DCQCN-style ECN rate controller (Zhu et al., SIGCOMM 2015), interval port.
//
// The NIC-style rate machine keeps a current rate RC, a target rate RT, and a
// congestion estimate alpha. A marked interval (the receiver echoed at least
// one CE mark) cuts RC by alpha/2, remembers the pre-cut rate as RT, and
// grows alpha; an unmarked interval decays alpha and recovers: for the first
// `fast_recovery_stages` intervals RC halves its gap to RT (fast recovery),
// afterwards RT itself rises additively by `rate_ai_bps` (active increase).
//
// The original reacts per CNP on a microsecond timer; this port reacts per
// PELS control interval using the receiver's echoed mark fraction, which
// preserves the state machine (the alpha/2 cut, the (RT+RC)/2 recovery, the
// EWMA alpha) at the cadence the rest of the zoo runs at. Losses are treated
// like marked intervals: the reproduction's paths are lossy, and a DCQCN that
// ignored loss would be blind outside its native lossless fabric.
//
// Kernel contract (see cc/mkc.h): free inline kernels on caller-owned
// scalars, applied by FlowTable to the columns of a kDcqcn slot.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/time.h"

namespace pels {

struct DcqcnConfig {
  double alpha_g = 1.0 / 16.0;  // alpha EWMA gain (the paper's g)
  double initial_alpha = 1.0;   // start conservative: first cut halves RC
  double rate_ai_bps = 40e3;    // additive target increase per stage
  int fast_recovery_stages = 5; // stages before active increase begins
  double initial_rate_bps = 128e3;
  double min_rate_bps = 1e3;
  double max_rate_bps = 1e9;

  /// Throws std::invalid_argument naming the first field outside its domain.
  void validate() const;
};

/// Marked interval: RT <- RC, RC <- RC (1 - alpha/2), alpha grows toward 1.
inline void dcqcn_mark_step(const DcqcnConfig& cfg, double& rate, double& target,
                            double& alpha, std::int32_t& stage) {
  target = rate;
  rate = std::max(rate * (1.0 - alpha / 2.0), cfg.min_rate_bps);
  alpha = (1.0 - cfg.alpha_g) * alpha + cfg.alpha_g;
  stage = 0;
}

/// Unmarked interval: alpha decays by (1 - g); fast recovery halves the gap
/// to RT, then active increase raises RT additively.
inline void dcqcn_increase_step(const DcqcnConfig& cfg, double& rate, double& target,
                                double& alpha, std::int32_t& stage) {
  alpha = (1.0 - cfg.alpha_g) * alpha;
  ++stage;
  if (stage > cfg.fast_recovery_stages)
    target = std::min(target + cfg.rate_ai_bps, cfg.max_rate_bps);
  rate = std::min(0.5 * (target + rate), cfg.max_rate_bps);
}

}  // namespace pels
