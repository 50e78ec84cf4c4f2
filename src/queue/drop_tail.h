// DropTail: bounded FIFO, the baseline best-effort queue.
//
// Backed by a RingBuffer, not std::deque: deque block churn costs roughly
// one allocation per 4-5 packets, which would be the last remaining heap
// traffic on the steady-state packet path (see util/ring_buffer.h). The ring
// grows to the queue's high-water mark, not its limit, so a mostly empty
// queue stays cache-resident.
#pragma once

#include <limits>

#include "net/queue_disc.h"
#include "queue/drr.h"
#include "util/ring_buffer.h"

namespace pels {

class DropTailQueue final : public QueueDisc {
 public:
  /// Limits are inclusive; a packet is dropped if admitting it would exceed
  /// either the packet or the byte limit. Pass kUnlimited to disable one.
  /// Throws std::invalid_argument on a zero packet limit or a byte limit
  /// <= 0 (either would silently drop every packet).
  static constexpr std::size_t kUnlimitedPackets = std::numeric_limits<std::size_t>::max();
  static constexpr std::int64_t kUnlimitedBytes = std::numeric_limits<std::int64_t>::max();

  explicit DropTailQueue(std::size_t limit_packets,
                         std::int64_t limit_bytes = kUnlimitedBytes);

  /// A refused packet is left untouched, so a queue holding this FIFO as a
  /// class can still count the drop against `pkt`.
  bool enqueue(Packet&& pkt) override;
  bool dequeue(Packet& out) override;
  std::size_t packet_count() const override { return fifo_.size(); }
  std::int64_t byte_count() const override { return bytes_; }

  /// Size of the head packet, or Drr2::kIdle when empty: all a round-robin
  /// scheduler over this FIFO needs to see.
  std::int64_t head_bytes() const { return fifo_.empty() ? Drr2::kIdle : fifo_.front().size_bytes; }

  std::size_t limit_packets() const { return limit_packets_; }
  std::int64_t limit_bytes() const { return limit_bytes_; }

 private:
  std::size_t limit_packets_;
  std::int64_t limit_bytes_;
  RingBuffer<Packet> fifo_;
  std::int64_t bytes_ = 0;
};

}  // namespace pels
