// Classical discrete Kelly control (Johari & Tan 2001 form), included as the
// motivating *negative* baseline for MKC.
//
//   r(k+1) = r(k) + kappa * (w - r(k - D) * p(k - D))
//
// where w is the flow's willingness-to-pay and p the path price (loss).
// The paper (§5.1) selects MKC over this classical form precisely because
// "the classical discrete Kelly control ... shows stability problems when
// the feedback delay becomes large": its stability condition tightens with
// the feedback delay D (kappa < ~pi/(2D) in the linearized single-link
// case), whereas MKC's 0 < beta < 2 is delay-independent (Lemma 5).
// bench/ablation_kelly_vs_mkc reproduces exactly that contrast.
//
// Kernel contract (see cc/mkc.h): kelly_classic_step runs on the rate of a
// kKellyClassic FlowTable slot, its only state.
#pragma once

#include <algorithm>
#include <vector>

namespace pels {

struct KellyClassicConfig {
  double kappa = 0.5;              // gain
  double willingness_bps = 40e3;   // w: target spend rate (r* = w/p*)
  double initial_rate_bps = 128e3;
  double min_rate_bps = 1e3;
  double max_rate_bps = 1e9;

  /// Throws std::invalid_argument naming the first field outside its domain.
  void validate() const;
};

/// One router-feedback update. The router's p = (R-C)/R can be negative
/// (spare capacity); the classical law expects a nonnegative price, so clamp
/// — spare capacity then grows the rate at the full willingness-to-pay slope
/// kappa*w.
inline void kelly_classic_step(const KellyClassicConfig& cfg, double p, double& rate) {
  const double price = std::max(p, 0.0);
  rate = rate + cfg.kappa * (cfg.willingness_bps - rate * price);
  rate = std::clamp(rate, cfg.min_rate_bps, cfg.max_rate_bps);
}

/// Pure iterate of the classical Kelly map for one flow against a
/// single-link price p(k) = (r(k)/C)^b (a standard congestion-price law with
/// steepness b), with feedback delay D steps. Returns the rate trajectory.
/// Used by tests/benches to exhibit the delay-induced instability.
std::vector<double> kelly_classic_trajectory(double r0, double capacity, double kappa,
                                             double willingness, int steps, int delay,
                                             double price_steepness = 4.0);

}  // namespace pels
