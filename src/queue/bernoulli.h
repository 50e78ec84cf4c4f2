// Bernoulli random-drop queue: the best-effort loss model of paper §3.1.
//
// Every arriving packet is dropped independently with probability p,
// regardless of occupancy; survivors enter a bounded FIFO. Together with an
// optional per-colour exemption (the paper's PSNR comparison "magically"
// protects the base layer of the best-effort flow, §6.5), this reproduces the
// i.i.d. loss process of the analytic model exactly.
#pragma once

#include <array>
#include <deque>

#include "net/queue_disc.h"
#include "util/rng.h"

namespace pels {

class BernoulliDropQueue : public QueueDisc {
 public:
  BernoulliDropQueue(Rng rng, double drop_probability, std::size_t limit_packets);

  /// Exempts a colour from random dropping (it can still be tail-dropped).
  void set_exempt(Color c, bool exempt) { exempt_[static_cast<std::size_t>(c)] = exempt; }

  void set_drop_probability(double p) { drop_probability_ = p; }
  double drop_probability() const { return drop_probability_; }

  bool enqueue(Packet&& pkt) override;
  bool dequeue(Packet& out) override;
  std::size_t packet_count() const override { return fifo_.size(); }
  std::int64_t byte_count() const override { return bytes_; }

 private:
  Rng rng_;
  double drop_probability_;
  std::size_t limit_packets_;
  std::array<bool, kNumColors> exempt_{};
  std::deque<Packet> fifo_;
  std::int64_t bytes_ = 0;
};

}  // namespace pels
