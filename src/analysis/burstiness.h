// Loss burst-length analysis (paper §3 premise).
//
// The paper's best-effort model assumes i.i.d. Bernoulli loss, i.e. loss
// bursts with geometric lengths — "the probability of obtaining a burst of
// length k proportional to e^{-k} (the tail of burst sizes is exponential)"
// — arguing that RED/ECN-style AQM makes drops uniformly random rather than
// the heavy-tailed bursts of FIFO queues. These tools measure burst-length
// distributions from packet outcome streams so tests and benches can verify
// that (a) the best-effort comparator queue really produces geometric
// bursts, and (b) the PELS red band produces the long tail-drop bursts that
// make red survivors nearly useless beyond the prefix.
#pragma once

#include <cstdint>
#include <vector>

namespace pels {

/// Accumulates consecutive-loss run lengths from an ordered outcome stream.
class BurstAnalyzer {
 public:
  /// Feeds the next packet outcome in arrival order (true = lost).
  void add(bool lost);
  /// Closes a trailing open burst; call once after the last outcome.
  void finish();

  const std::vector<std::int64_t>& burst_lengths() const { return bursts_; }
  std::size_t burst_count() const { return bursts_.size(); }
  std::int64_t packets_seen() const { return packets_; }
  std::int64_t packets_lost() const { return lost_; }
  double loss_rate() const;
  double mean_burst_length() const;
  double max_burst_length() const;

  /// Empirical P(L > k) over observed bursts.
  double ccdf(std::int64_t k) const;

  /// Mean burst length of i.i.d. Bernoulli(p) loss: 1/(1-p).
  static double geometric_mean_burst(double p) { return 1.0 / (1.0 - p); }

 private:
  std::vector<std::int64_t> bursts_;
  std::int64_t packets_ = 0;
  std::int64_t lost_ = 0;
  std::int64_t open_burst_ = 0;
};

}  // namespace pels
