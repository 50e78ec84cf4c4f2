#include "cc/mkc.h"

#include <stdexcept>

namespace pels {

void MkcConfig::validate() const {
  if (!(alpha_bps > 0.0)) throw std::invalid_argument("MkcConfig: alpha_bps must be > 0");
  if (!(beta > 0.0 && beta < 2.0))
    throw std::invalid_argument("MkcConfig: beta must be in (0, 2) (Lemma 5 stability)");
  if (!(min_rate_bps > 0.0 && min_rate_bps <= initial_rate_bps &&
        initial_rate_bps <= max_rate_bps))
    throw std::invalid_argument(
        "MkcConfig: rates must satisfy 0 < min_rate_bps <= initial_rate_bps <= max_rate_bps");
  if (!(silence_decay > 0.0 && silence_decay <= 1.0))
    throw std::invalid_argument("MkcConfig: silence_decay must be in (0, 1]");
}

}  // namespace pels
