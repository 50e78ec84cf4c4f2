#include "queue/drop_tail.h"

#include <stdexcept>

namespace pels {

DropTailQueue::DropTailQueue(std::size_t limit_packets, std::int64_t limit_bytes)
    : limit_packets_(limit_packets), limit_bytes_(limit_bytes) {
  if (limit_packets_ == 0)
    throw std::invalid_argument("DropTailQueue: limit_packets must be >= 1");
  if (limit_bytes_ <= 0) throw std::invalid_argument("DropTailQueue: limit_bytes must be > 0");
}

bool DropTailQueue::enqueue(Packet&& pkt) {
  counters().count_arrival(pkt);
  if (fifo_.size() + 1 > limit_packets_ || bytes_ + pkt.size_bytes > limit_bytes_) {
    note_drop(pkt);
    return false;
  }
  bytes_ += pkt.size_bytes;
  fifo_.push_back(std::move(pkt));
  return true;
}

bool DropTailQueue::dequeue(Packet& out) {
  if (fifo_.empty()) return false;
  out = std::move(fifo_.front());
  fifo_.drop_front();
  bytes_ -= out.size_bytes;
  counters().count_departure(out);
  return true;
}

}  // namespace pels
