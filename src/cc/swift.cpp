#include "cc/swift.h"

#include <stdexcept>

namespace pels {

void SwiftConfig::validate() const {
  if (!(q_low >= 0 && q_low < q_high))
    throw std::invalid_argument("SwiftConfig: q_low must satisfy 0 <= q_low < q_high");
  if (gradient_scale <= 0)
    throw std::invalid_argument("SwiftConfig: gradient_scale must be > 0");
  if (!(ai_bps > 0.0)) throw std::invalid_argument("SwiftConfig: ai_bps must be > 0");
  if (!(md_gain > 0.0 && md_gain <= 1.0))
    throw std::invalid_argument("SwiftConfig: md_gain must be in (0, 1]");
  if (!(min_rate_bps > 0.0 && min_rate_bps <= initial_rate_bps &&
        initial_rate_bps <= max_rate_bps))
    throw std::invalid_argument(
        "SwiftConfig: rates must satisfy 0 < min_rate_bps <= initial_rate_bps <= max_rate_bps");
}

}  // namespace pels
