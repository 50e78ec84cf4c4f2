// CUBIC congestion control (RFC 9438), rate-based port.
//
// Loss-driven window control: on a congestion event the window is cut to
// beta * W and a new cubic epoch starts; afterwards the window follows
//
//   W(t) = C (t - K)^3 + W_max,   K = cbrt(W_max (1 - beta) / C)
//
// concave up to the pre-event plateau W_max and convex beyond it (the probing
// phase). A Reno-equivalent AIMD estimate (the TCP-friendly region) lower-
// bounds the window in the regime where plain AIMD would grow faster. The
// window converts to a pacing rate at the PELS pacing layer: r = W * MSS * 8
// / sRTT, so the source machinery stays rate-based throughout.
//
// ECN marks are congestion events with a gentler backoff (ABE, RFC 8511).
//
// Kernel contract (see cc/mkc.h): the update maps are free inline kernels on
// caller-owned scalars, applied by FlowTable to the columns of a kCubic
// slot.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/time.h"

namespace pels {

struct CubicConfig {
  double c = 0.4;          // cubic scaling constant (RFC 9438 §4.1)
  double beta = 0.7;       // window retention on a loss event
  double ecn_beta = 0.85;  // gentler retention on an ECN-mark event (RFC 8511)
  double mss_bytes = 1000.0;
  double initial_cwnd_pkts = 10.0;
  double min_cwnd_pkts = 2.0;
  double max_cwnd_pkts = 1e6;
  double min_rate_bps = 1e3;
  double max_rate_bps = 1e9;
  /// Pre-first-event ramp per control tick (slow-start stand-in: the control
  /// clock, not the ACK clock, drives this port).
  double slow_start_growth = 2.0;
  /// Growth cap per control tick after the first event; bounds the convex
  /// probing phase the same way MKC caps its ramp.
  double max_tick_growth = 1.5;
  SimTime initial_rtt = from_millis(100);

  /// Throws std::invalid_argument naming the first field outside its domain.
  void validate() const;
};

/// Window -> pacing rate conversion; falls back to the configured RTT until
/// the first sample arrives.
inline double cubic_rate_from_cwnd(const CubicConfig& cfg, double cwnd, SimTime srtt) {
  const double rtt_sec = to_seconds(srtt > 0 ? srtt : cfg.initial_rtt);
  return std::clamp(cwnd * cfg.mss_bytes * 8.0 / rtt_sec, cfg.min_rate_bps,
                    cfg.max_rate_bps);
}

/// Congestion event (loss, or ECN mark with beta = ecn_beta): remember the
/// plateau, cut the window, start a new cubic epoch.
inline void cubic_event_step(const CubicConfig& cfg, double beta, SimTime now,
                             SimTime srtt, double& cwnd, double& w_max, double& k,
                             SimTime& epoch_start, double& rate) {
  w_max = cwnd;
  cwnd = std::max(cwnd * beta, cfg.min_cwnd_pkts);
  k = std::cbrt(w_max * (1.0 - beta) / cfg.c);
  epoch_start = now;
  rate = cubic_rate_from_cwnd(cfg, cwnd, srtt);
}

/// One control tick of window growth. Before the first event (w_max == 0)
/// the window ramps multiplicatively; afterwards it tracks the cubic curve,
/// lower-bounded by the Reno-equivalent estimate (TCP-friendly region,
/// RFC 9438 §4.3) and upper-bounded by the per-tick growth cap.
inline void cubic_tick_step(const CubicConfig& cfg, SimTime now, SimTime srtt,
                            double& cwnd, double w_max, double k, SimTime epoch_start,
                            double& rate) {
  if (w_max <= 0.0) {
    cwnd = std::min(cwnd * cfg.slow_start_growth, cfg.max_cwnd_pkts);
  } else {
    const double t = to_seconds(now - epoch_start);
    const double offs = t - k;
    const double target = w_max + cfg.c * offs * offs * offs;
    const double rtt_sec = to_seconds(srtt > 0 ? srtt : cfg.initial_rtt);
    const double w_est =
        w_max * cfg.beta + 3.0 * (1.0 - cfg.beta) / (1.0 + cfg.beta) * (t / rtt_sec);
    double next = std::max({target, w_est, cwnd});
    next = std::min(next, cwnd * cfg.max_tick_growth);
    cwnd = std::clamp(next, cfg.min_cwnd_pkts, cfg.max_cwnd_pkts);
  }
  rate = cubic_rate_from_cwnd(cfg, cwnd, srtt);
}

}  // namespace pels
