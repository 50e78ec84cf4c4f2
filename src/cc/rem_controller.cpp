#include "cc/rem_controller.h"

#include <stdexcept>

namespace pels {

void RemControllerConfig::validate() const {
  if (!(kappa > 0.0)) throw std::invalid_argument("RemControllerConfig: kappa must be > 0");
  if (!(willingness > 0.0))
    throw std::invalid_argument("RemControllerConfig: willingness must be > 0");
  if (!(phi > 1.0)) throw std::invalid_argument("RemControllerConfig: phi must be > 1");
  if (!(min_rate_bps > 0.0 && min_rate_bps <= initial_rate_bps &&
        initial_rate_bps <= max_rate_bps))
    throw std::invalid_argument(
        "RemControllerConfig: rates must satisfy 0 < min_rate_bps <= initial_rate_bps <= "
        "max_rate_bps");
}

}  // namespace pels
