// Strict priority queue: N bands, lower band index = higher priority.
//
// dequeue() always serves the lowest-index non-empty band, so low-priority
// packets never pass while higher-priority packets wait — exactly the
// discipline PELS requires inside the video queue group (paper §4.1: "network
// routers must use queuing mechanisms that do not allow low-priority packets
// to pass until all high-priority packets are fully transmitted").
#pragma once

#include <functional>
#include <vector>

#include "net/queue_disc.h"
#include "util/ring_buffer.h"

namespace pels {

class StrictPriorityQueue : public QueueDisc {
 public:
  /// Maps a packet to its band in [0, bands). Must be pure.
  using Classifier = std::function<std::size_t(const Packet&)>;

  /// `band_limits[i]` is the packet capacity of band i. Throws
  /// std::invalid_argument on an empty band list, a zero band limit or a
  /// null classifier.
  StrictPriorityQueue(std::vector<std::size_t> band_limits, Classifier classify);

  bool enqueue(Packet&& pkt) override;
  bool dequeue(Packet& out) override;
  const Packet* peek() const override;
  std::size_t packet_count() const override { return total_packets_; }
  std::int64_t byte_count() const override { return total_bytes_; }

  std::size_t bands() const { return bands_.size(); }
  std::size_t band_packet_count(std::size_t band) const { return bands_.at(band).size(); }
  std::size_t band_limit(std::size_t band) const { return limits_.at(band); }

  /// Default classifier for PELS colours: green/ack -> 0, yellow -> 1,
  /// red -> 2, others -> last band.
  static std::size_t classify_by_color(const Packet& pkt);

 private:
  std::vector<std::size_t> limits_;
  Classifier classify_;
  // Rings, not std::deque: a deque allocates/frees a block for every ~4
  // Packets that pass through (see util/ring_buffer.h), which at population
  // scale dominates the per-packet cost (bench/many_flows asserts 0
  // allocs/packet). Each band grows to its high-water mark, not its limit,
  // and never shrinks: steady state never touches the heap, and a band
  // holding a few packets stays a few cache lines wide.
  std::vector<RingBuffer<Packet>> bands_;
  std::size_t total_packets_ = 0;
  std::int64_t total_bytes_ = 0;
};

}  // namespace pels
