#include "cc/kelly_classic.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace pels {

void KellyClassicConfig::validate() const {
  if (!(kappa > 0.0)) throw std::invalid_argument("KellyClassicConfig: kappa must be > 0");
  if (!(willingness_bps > 0.0))
    throw std::invalid_argument("KellyClassicConfig: willingness_bps must be > 0");
  if (!(min_rate_bps > 0.0 && min_rate_bps <= initial_rate_bps &&
        initial_rate_bps <= max_rate_bps))
    throw std::invalid_argument(
        "KellyClassicConfig: rates must satisfy 0 < min_rate_bps <= initial_rate_bps <= "
        "max_rate_bps");
}

std::vector<double> kelly_classic_trajectory(double r0, double capacity, double kappa,
                                             double willingness, int steps, int delay,
                                             double price_steepness) {
  assert(steps > 0 && delay >= 1);
  std::vector<double> r;
  r.reserve(static_cast<std::size_t>(steps) + 1);
  r.push_back(r0);
  for (int k = 0; k < steps; ++k) {
    const int src = std::max(0, k - (delay - 1));
    const double r_delayed = r[static_cast<std::size_t>(src)];
    const double price = std::pow(std::max(r_delayed, 0.0) / capacity, price_steepness);
    // Note: the *current* rate integrates the delayed price signal — the
    // structure whose phase lag destabilizes the loop as D grows.
    double next = r.back() + kappa * (willingness - r_delayed * price);
    if (next < 1.0) next = 1.0;
    r.push_back(next);
  }
  return r;
}

}  // namespace pels
