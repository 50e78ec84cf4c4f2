// Max-min Kelly Control (paper eq. (8); Zhang/Kang/Loguinov 2003).
//
//   r_i(k) = r_i(k - D_i) + alpha - beta * r_i(k - D_i) * p_l(k - D_i<-)
//
// Feedback p_l comes from the most-congested router on the path (max-min
// semantics enforced by the label override rule). The discrete map has a
// single stationary point r* = C/N + alpha/beta, converges exponentially, is
// stable for 0 < beta < 2 under arbitrary heterogeneous delays (Lemma 5), and
// does not penalize long-RTT flows (Lemma 6).
//
// The update maps live as free inline kernels (mkc_feedback_step /
// mkc_silence_step) operating on caller-owned scalars. FlowTable applies them
// to its contiguous columns, so a PelsSource and the population driver's tick
// (exp/fabric.h) update one storage through the same calls.
#pragma once

#include <algorithm>
#include <cstdint>

namespace pels {

struct MkcConfig {
  double alpha_bps = 20e3;    // additive gain per feedback epoch (20 kb/s)
  double beta = 0.5;          // multiplicative gain; stable iff 0 < beta < 2
  double initial_rate_bps = 128e3;
  double min_rate_bps = 1e3;  // floor keeps the control loop alive
  double max_rate_bps = 1e9;
  /// Cap on the per-update growth factor. On a near-idle link p saturates at
  /// the feedback floor and the raw map multiplies the rate by 1 + beta*|p|
  /// per epoch; because the router's rate estimate lags by a couple of
  /// intervals, an uncapped ramp overshoots far past capacity before the
  /// feedback catches up. Doubling per epoch still claims an idle link
  /// exponentially (128 kb/s -> 2 mb/s in four epochs, the paper's "~0.1 s").
  double max_growth_factor = 2.0;

  // --- feedback-silence degradation (FlowTable::apply_silence) ---------
  /// Multiplicative rate cut per silent control tick while the source's
  /// feedback watchdog fires. Eq. (8) is an open loop without p: holding the
  /// last rate congests a path whose capacity may have collapsed unseen.
  double silence_decay = 0.85;
  /// The decay stops at this floor (not min_rate_bps): enough to keep the
  /// base layer and the feedback path itself alive, so recovery is observed
  /// the moment labels flow again.
  double silence_floor_bps = 64e3;
  /// Re-probe after silence ends: for the first recovery_updates feedback
  /// updates the growth cap tightens to this factor. The first labels after
  /// an outage describe a path whose state (capacity, competing flows) the
  /// controller no longer knows; jumping back at full ramp overshoots it.
  double recovery_growth_factor = 1.5;
  int recovery_updates = 8;

  /// Throws std::invalid_argument naming the first field outside its domain
  /// (beta outside Lemma 5's stability region (0, 2) included).
  void validate() const;
};

/// One MKC feedback update (eq. (8)) on caller-owned state. p < 0
/// (underutilization) makes the multiplicative term positive, producing the
/// exponential ramp toward capacity; p > 0 produces the proportional
/// back-off. Fresh feedback ends a silence episode and arms the tightened
/// recovery growth cap.
inline void mkc_feedback_step(const MkcConfig& cfg, double p, double& rate,
                              bool& silent, std::int32_t& recovery_left,
                              std::uint64_t& updates) {
  double growth_cap = cfg.max_growth_factor;
  if (silent) {
    silent = false;
    recovery_left = cfg.recovery_updates;
  }
  if (recovery_left > 0) {
    growth_cap = std::min(growth_cap, cfg.recovery_growth_factor);
    --recovery_left;
  }
  double next = rate + cfg.alpha_bps - cfg.beta * rate * p;
  next = std::min(next, rate * growth_cap);
  rate = std::clamp(next, cfg.min_rate_bps, cfg.max_rate_bps);
  ++updates;
}

/// One silence tick: multiplicative decay toward the silence floor while the
/// source's feedback watchdog fires.
inline void mkc_silence_step(const MkcConfig& cfg, double& rate, bool& silent,
                             std::uint64_t& silence_ticks) {
  silent = true;
  ++silence_ticks;
  const double floor = std::max(cfg.min_rate_bps, cfg.silence_floor_bps);
  rate = std::max(std::min(rate, floor), rate * cfg.silence_decay);
}

/// Stationary rate of eq. (10): C/N + alpha/beta (analysis/stability.h's
/// mkc_stationary_rate on a config's gains).
inline double mkc_stationary_rate(double capacity_bps, int flows, const MkcConfig& cfg) {
  return capacity_bps / flows + cfg.alpha_bps / cfg.beta;
}

}  // namespace pels
