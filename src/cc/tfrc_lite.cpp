#include "cc/tfrc_lite.h"

#include <stdexcept>

namespace pels {

void TfrcLiteConfig::validate() const {
  if (!(packet_size_bytes > 0.0))
    throw std::invalid_argument("TfrcLiteConfig: packet_size_bytes must be > 0");
  if (!(min_rate_bps > 0.0 && min_rate_bps <= initial_rate_bps &&
        initial_rate_bps <= max_rate_bps))
    throw std::invalid_argument(
        "TfrcLiteConfig: rates must satisfy 0 < min_rate_bps <= initial_rate_bps <= "
        "max_rate_bps");
  if (!(loss_ewma > 0.0 && loss_ewma <= 1.0))
    throw std::invalid_argument("TfrcLiteConfig: loss_ewma must be in (0, 1]");
  if (initial_rtt <= 0) throw std::invalid_argument("TfrcLiteConfig: initial_rtt must be > 0");
}

}  // namespace pels
