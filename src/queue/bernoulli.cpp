#include "queue/bernoulli.h"

#include <cassert>

namespace pels {

BernoulliDropQueue::BernoulliDropQueue(Rng rng, double drop_probability,
                                       std::size_t limit_packets)
    : rng_(rng), drop_probability_(drop_probability), limit_packets_(limit_packets) {
  assert(limit_packets_ > 0);
}

bool BernoulliDropQueue::enqueue(Packet&& pkt) {
  counters().count_arrival(pkt);
  const bool exempt = exempt_[static_cast<std::size_t>(pkt.color)];
  if (!exempt && rng_.bernoulli(drop_probability_)) {
    note_drop(pkt);
    return false;
  }
  if (fifo_.size() + 1 > limit_packets_) {
    note_drop(pkt);
    return false;
  }
  bytes_ += pkt.size_bytes;
  fifo_.push_back(std::move(pkt));
  return true;
}

bool BernoulliDropQueue::dequeue(Packet& out) {
  if (fifo_.empty()) return false;
  out = std::move(fifo_.front());
  fifo_.pop_front();
  bytes_ -= out.size_bytes;
  counters().count_departure(out);
  return true;
}

}  // namespace pels
