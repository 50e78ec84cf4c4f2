#include "queue/red.h"

#include <cassert>
#include <cmath>

namespace pels {

RedQueue::RedQueue(Scheduler& sched, Rng rng, RedConfig config)
    : sched_(sched), rng_(rng), cfg_(config) {
  assert(cfg_.min_th > 0.0 && cfg_.max_th > cfg_.min_th);
  assert(cfg_.max_p > 0.0 && cfg_.max_p <= 1.0);
  assert(cfg_.weight > 0.0 && cfg_.weight <= 1.0);
  assert(cfg_.limit_packets > 0);
  assert(cfg_.mean_tx_time > 0);
}

void RedQueue::update_average() {
  if (idle_) {
    // While idle the queue was 0; age the average as if m small packets had
    // departed: avg <- (1-w)^m * avg.
    const double m =
        static_cast<double>(sched_.now() - idle_since_) / static_cast<double>(cfg_.mean_tx_time);
    avg_ *= std::pow(1.0 - cfg_.weight, std::max(0.0, m));
    idle_ = false;
  } else {
    avg_ = (1.0 - cfg_.weight) * avg_ + cfg_.weight * static_cast<double>(fifo_.size());
  }
}

bool RedQueue::early_drop_decision() {
  if (avg_ < cfg_.min_th) {
    count_ = -1;
    return false;
  }
  double p_b;
  if (avg_ < cfg_.max_th) {
    p_b = cfg_.max_p * (avg_ - cfg_.min_th) / (cfg_.max_th - cfg_.min_th);
  } else if (cfg_.gentle && avg_ < 2.0 * cfg_.max_th) {
    p_b = cfg_.max_p + (1.0 - cfg_.max_p) * (avg_ - cfg_.max_th) / cfg_.max_th;
  } else {
    count_ = 0;
    return true;  // forced drop above (gentle ? 2*max_th : max_th)
  }
  ++count_;
  // Uniformize inter-drop spacing: p_a = p_b / (1 - count * p_b).
  const double denom = 1.0 - static_cast<double>(count_) * p_b;
  const double p_a = denom <= 0.0 ? 1.0 : p_b / denom;
  if (rng_.bernoulli(p_a)) {
    count_ = 0;
    return true;
  }
  return false;
}

bool RedQueue::enqueue(Packet&& pkt) {
  counters().count_arrival(pkt);
  update_average();
  if (early_drop_decision() || fifo_.size() + 1 > cfg_.limit_packets) {
    note_drop(pkt);
    return false;
  }
  bytes_ += pkt.size_bytes;
  fifo_.push_back(std::move(pkt));
  return true;
}

bool RedQueue::dequeue(Packet& out) {
  if (fifo_.empty()) return false;
  out = std::move(fifo_.front());
  fifo_.pop_front();
  bytes_ -= out.size_bytes;
  counters().count_departure(out);
  if (fifo_.empty()) {
    idle_ = true;
    idle_since_ = sched_.now();
  }
  return true;
}

}  // namespace pels
