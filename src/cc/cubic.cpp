#include "cc/cubic.h"

#include <stdexcept>

namespace pels {

void CubicConfig::validate() const {
  if (!(c > 0.0)) throw std::invalid_argument("CubicConfig: c must be > 0");
  if (!(beta > 0.0 && beta < 1.0))
    throw std::invalid_argument("CubicConfig: beta must be in (0, 1)");
  if (!(ecn_beta > 0.0 && ecn_beta < 1.0))
    throw std::invalid_argument("CubicConfig: ecn_beta must be in (0, 1)");
  if (!(mss_bytes > 0.0)) throw std::invalid_argument("CubicConfig: mss_bytes must be > 0");
  if (!(min_cwnd_pkts > 0.0 && min_cwnd_pkts <= initial_cwnd_pkts))
    throw std::invalid_argument(
        "CubicConfig: cwnds must satisfy 0 < min_cwnd_pkts <= initial_cwnd_pkts");
  if (initial_rtt <= 0) throw std::invalid_argument("CubicConfig: initial_rtt must be > 0");
}

}  // namespace pels
