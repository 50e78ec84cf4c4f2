#include "video/gamma_controller.h"

#include <algorithm>
#include <stdexcept>

namespace pels {

void GammaConfig::validate() const {
  if (!(p_thr > 0.0 && p_thr <= 1.0))
    throw std::invalid_argument("GammaConfig: p_thr must be in (0, 1]");
  if (!(gamma_low >= 0.0 && gamma_low < gamma_high && gamma_high <= 1.0))
    throw std::invalid_argument(
        "GammaConfig: gamma bounds must satisfy 0 <= gamma_low < gamma_high <= 1");
  if (!(initial_gamma >= gamma_low && initial_gamma <= gamma_high))
    throw std::invalid_argument(
        "GammaConfig: initial_gamma must be in [gamma_low, gamma_high]");
}

double stationary_gamma(const GammaConfig& cfg, double p) {
  return std::clamp(p / cfg.p_thr, cfg.gamma_low, cfg.gamma_high);
}

}  // namespace pels
