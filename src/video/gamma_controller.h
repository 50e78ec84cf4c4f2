// The gamma controller: FGS partitioning control (paper §4.3).
//
// Adjusts the red fraction gamma of each transmitted FGS frame so that the
// red-queue loss rate converges to the target p_thr:
//
//   gamma(k) = gamma(k-1) + sigma * (p(k-1)/p_thr - gamma(k-1))      (eq. 4)
//
// where p is the measured loss in the entire FGS layer. The fixed point is
// gamma* = p*/p_thr, at which red loss p/gamma = p_thr. Stable iff
// 0 < sigma < 2 (Lemma 2), under arbitrary feedback delay too (Lemma 3,
// eq. (5) — the delayed map is the same affine map applied along each
// delay-residue subsequence, hence the identical condition).
#pragma once

#include <cstdint>

namespace pels {

struct GammaConfig {
  double sigma = 0.5;        // controller gain; stable iff in (0, 2)
  double p_thr = 0.75;       // target red loss rate (70-90% per the paper)
  double initial_gamma = 0.5;
  double gamma_low = 0.05;   // probing floor (§6.2: flows keep probing)
  double gamma_high = 0.95;

  /// Throws std::invalid_argument naming the first field outside its domain.
  /// sigma is exempt on purpose: Figure 5 demonstrates divergence at
  /// sigma = 3 (see is_stable_gain for the Lemma 2 region).
  void validate() const;
};

/// Lemma 2/3 stability predicate for a candidate gain.
constexpr bool is_stable_gain(double sigma) { return sigma > 0.0 && sigma < 2.0; }

/// Fixed point for stationary loss p: gamma* = p / p_thr (clamped).
double stationary_gamma(const GammaConfig& cfg, double p);

/// Pure iterate map of eq. (4) without clamping, for stability analysis and
/// Figure 5: gamma' = gamma + sigma * (p/p_thr - gamma).
constexpr double gamma_iterate(double gamma, double p, double sigma, double p_thr) {
  return gamma + sigma * (p / p_thr - gamma);
}

/// One full gamma control step (clamp p, iterate eq. (4), clamp gamma) on
/// caller-owned state. FlowTable::apply_gamma runs it on the flow's gamma
/// column — the only home of a flow's gamma — for PelsSource and the
/// population driver alike.
/// Returns the new gamma.
inline double gamma_update_step(const GammaConfig& cfg, double p, double& gamma,
                                std::uint64_t& updates) {
  p = p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
  gamma = gamma_iterate(gamma, p, cfg.sigma, cfg.p_thr);
  gamma = gamma < cfg.gamma_low ? cfg.gamma_low
                                : (gamma > cfg.gamma_high ? cfg.gamma_high : gamma);
  ++updates;
  return gamma;
}

}  // namespace pels
