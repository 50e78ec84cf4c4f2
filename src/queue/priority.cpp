#include "queue/priority.h"

#include <cassert>
#include <stdexcept>

namespace pels {

StrictPriorityQueue::StrictPriorityQueue(std::vector<std::size_t> band_limits,
                                         Classifier classify)
    : limits_(std::move(band_limits)), classify_(std::move(classify)), bands_(limits_.size()) {
  if (limits_.empty())
    throw std::invalid_argument("StrictPriorityQueue: band_limits must not be empty");
  if (classify_ == nullptr)
    throw std::invalid_argument("StrictPriorityQueue: classify must not be null");
  for (const std::size_t limit : limits_) {
    if (limit == 0)
      throw std::invalid_argument("StrictPriorityQueue: band_limits must be >= 1 packet");
  }
}

bool StrictPriorityQueue::enqueue(Packet&& pkt) {
  counters().count_arrival(pkt);
  const std::size_t band = classify_(pkt);
  assert(band < bands_.size() && "classifier returned out-of-range band");
  if (bands_[band].size() + 1 > limits_[band]) {
    note_drop(pkt);
    return false;
  }
  total_bytes_ += pkt.size_bytes;
  ++total_packets_;
  bands_[band].push_back(std::move(pkt));
  return true;
}

bool StrictPriorityQueue::dequeue(Packet& out) {
  for (auto& band : bands_) {
    if (band.empty()) continue;
    out = std::move(band.front());
    band.drop_front();
    total_bytes_ -= out.size_bytes;
    --total_packets_;
    counters().count_departure(out);
    return true;
  }
  return false;
}

const Packet* StrictPriorityQueue::peek() const {
  for (const auto& band : bands_)
    if (!band.empty()) return &band.front();
  return nullptr;
}

std::size_t StrictPriorityQueue::classify_by_color(const Packet& pkt) {
  switch (pkt.color) {
    case Color::kGreen:
    case Color::kAck:
      return 0;
    case Color::kYellow:
      return 1;
    case Color::kRed:
      return 2;
    case Color::kInternet:
      break;
  }
  return 2;
}

}  // namespace pels
