#include "cc/scream_lite.h"

#include <stdexcept>

namespace pels {

void ScreamLiteConfig::validate() const {
  if (qdelay_target <= 0)
    throw std::invalid_argument("ScreamLiteConfig: qdelay_target must be > 0");
  if (!(increase_bps > 0.0))
    throw std::invalid_argument("ScreamLiteConfig: increase_bps must be > 0");
  if (!(decrease_gain > 0.0 && decrease_gain <= 1.0))
    throw std::invalid_argument("ScreamLiteConfig: decrease_gain must be in (0, 1]");
  if (!(loss_beta > 0.0 && loss_beta < 1.0))
    throw std::invalid_argument("ScreamLiteConfig: loss_beta must be in (0, 1)");
  if (!(mark_beta > 0.0 && mark_beta < 1.0))
    throw std::invalid_argument("ScreamLiteConfig: mark_beta must be in (0, 1)");
  if (!(max_tick_growth > 1.0))
    throw std::invalid_argument("ScreamLiteConfig: max_tick_growth must be > 1");
  if (!(min_rate_bps > 0.0 && min_rate_bps <= initial_rate_bps &&
        initial_rate_bps <= max_rate_bps))
    throw std::invalid_argument(
        "ScreamLiteConfig: rates must satisfy 0 < min_rate_bps <= initial_rate_bps <= "
        "max_rate_bps");
}

}  // namespace pels
