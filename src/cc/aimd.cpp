#include "cc/aimd.h"

#include <stdexcept>

namespace pels {

void AimdConfig::validate() const {
  if (!(increase_bps > 0.0)) throw std::invalid_argument("AimdConfig: increase_bps must be > 0");
  if (!(decrease_factor > 0.0 && decrease_factor < 1.0))
    throw std::invalid_argument("AimdConfig: decrease_factor must be in (0, 1)");
  if (!(min_rate_bps > 0.0 && min_rate_bps <= initial_rate_bps &&
        initial_rate_bps <= max_rate_bps))
    throw std::invalid_argument(
        "AimdConfig: rates must satisfy 0 < min_rate_bps <= initial_rate_bps <= max_rate_bps");
  if (backoff_guard < 0) throw std::invalid_argument("AimdConfig: backoff_guard must be >= 0");
}

}  // namespace pels
