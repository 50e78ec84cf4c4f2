// REM-responsive source control (Lapsley & Low, the paper's §2.2 ref [20]):
// utility-maximizing rate control driven by ECN mark fractions instead of
// loss.
//
// The REM router marks with probability 1 - phi^(-price); prices sum along
// the path, so from an observed mark fraction f the source recovers the path
// price  p = -log_phi(1 - f)  and ascends its net utility
// w log r - r p via
//
//   r(k+1) = r(k) + kappa * (w - r(k) * p(k))
//
// whose fixed point is r* = w/p*: weighted proportional fairness with zero
// packet loss (congestion is signalled, never enforced). Router loss labels
// are ignored: mixing both signals would double-count congestion.
//
// Kernel contract (see cc/mkc.h): rem_mark_step runs on the rate and price
// columns of a kRem FlowTable slot.
#pragma once

#include <algorithm>
#include <cmath>

namespace pels {

struct RemControllerConfig {
  double kappa = 0.15;           // gain
  double willingness = 100e3;    // w: bandwidth-price budget (bits/s * price)
  double phi = 2.0;              // must match the routers' marking base
  double initial_rate_bps = 128e3;
  double min_rate_bps = 1e3;
  double max_rate_bps = 1e9;

  /// Throws std::invalid_argument naming the first field outside its domain.
  void validate() const;
};

/// One control interval's mark fraction f: recover the path price, then
/// take one gradient step on the net utility.
inline void rem_mark_step(const RemControllerConfig& cfg, double f, double& price,
                          double& rate) {
  f = std::clamp(f, 0.0, 0.999999);
  price = -std::log1p(-f) / std::log(cfg.phi);
  rate = rate + cfg.kappa * (cfg.willingness - rate * price);
  rate = std::clamp(rate, cfg.min_rate_bps, cfg.max_rate_bps);
}

}  // namespace pels
