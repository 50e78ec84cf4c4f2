#include "cc/dcqcn.h"

#include <stdexcept>

namespace pels {

void DcqcnConfig::validate() const {
  if (!(alpha_g > 0.0 && alpha_g <= 1.0))
    throw std::invalid_argument("DcqcnConfig: alpha_g must be in (0, 1]");
  if (!(initial_alpha >= 0.0 && initial_alpha <= 1.0))
    throw std::invalid_argument("DcqcnConfig: initial_alpha must be in [0, 1]");
  if (!(rate_ai_bps > 0.0)) throw std::invalid_argument("DcqcnConfig: rate_ai_bps must be > 0");
  if (fast_recovery_stages < 0)
    throw std::invalid_argument("DcqcnConfig: fast_recovery_stages must be >= 0");
  if (!(min_rate_bps > 0.0 && min_rate_bps <= initial_rate_bps &&
        initial_rate_bps <= max_rate_bps))
    throw std::invalid_argument(
        "DcqcnConfig: rates must satisfy 0 < min_rate_bps <= initial_rate_bps <= max_rate_bps");
}

}  // namespace pels
