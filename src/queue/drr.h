// Two-class deficit round robin (Shreedhar & Varghese), the WRR link split
// every router queue here uses: class 0 is the video side (the PELS
// strict-priority group, or the comparators' video FIFO), class 1 the
// Internet FIFO (paper §4.1, Fig. 4).
//
// Each class accumulates weight-proportional byte credit per round and is
// served while its head packet fits the credit. Byte-based credit makes the
// weights hold as *bandwidth* shares even with mixed packet sizes. The
// queue owning the classes passes in their head sizes; this class only
// keeps the round-robin state, so the pick is plain arithmetic with no
// virtual call or classifier between a queue and its classes.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

namespace pels {

class Drr2 {
 public:
  /// Head size of a class with nothing queued.
  static constexpr std::int64_t kIdle = -1;
  /// Byte credit granted to a weight-1.0 class per round: one MTU, so every
  /// packet can eventually be served.
  static constexpr std::int64_t kQuantumBytes = 1500;

  /// Weights must be > 0; shares are weight / (w0 + w1). A class's
  /// per-round credit is quantum * weight rounded up and floored at 1 byte:
  /// truncating it would give a small-weight class zero credit per round
  /// and starve it forever.
  Drr2(double w0, double w1) : credit_{round_credit(w0), round_credit(w1)} {
    assert(w0 > 0.0 && w1 > 0.0);
  }

  /// Picks the class to serve given each class's head packet size in bytes
  /// (kIdle when empty), charges the head to that class's deficit and
  /// returns 0 or 1; returns -1, changing nothing, when both are idle. An
  /// idle class met on the way forfeits its credit (the DRR rule), so idle
  /// time never banks bandwidth.
  int select(std::int64_t head0, std::int64_t head1) {
    if (head0 == kIdle && head1 == kIdle) return -1;
    const std::int64_t head[2] = {head0, head1};
    for (;;) {
      const int c = current_;
      if (head[c] == kIdle) {
        deficit_[c] = 0;
      } else if (deficit_[c] >= head[c]) {
        deficit_[c] -= head[c];
        return c;
      } else {
        deficit_[c] += credit_[c];
      }
      current_ ^= 1;
    }
  }

  /// Committed byte credit of class `c` (telemetry/diagnostics).
  std::int64_t deficit(int c) const { return deficit_[c]; }

 private:
  static std::int64_t round_credit(double weight) {
    const auto credit =
        static_cast<std::int64_t>(std::ceil(static_cast<double>(kQuantumBytes) * weight));
    return std::max<std::int64_t>(credit, 1);
  }

  std::int64_t credit_[2];
  std::int64_t deficit_[2] = {0, 0};
  int current_ = 0;
};

}  // namespace pels
