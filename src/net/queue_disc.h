// Queue-discipline interface.
//
// A QueueDisc is a pure queueing object: enqueue() accepts or drops a packet,
// dequeue() moves the next packet to transmit into a caller-owned slot (the
// link's in-flight ring), so a packet leaves the queue without an
// intermediate copy. Timing (serialization and propagation) belongs to
// Link, mirroring the ns-2 Queue/DelayLink split the paper's implementation
// used. Concrete disciplines (DropTail, RED, Bernoulli, and the flat PELS,
// best-effort and REM router queues) live in src/queue.
#pragma once

#include <cstdint>

#include "net/packet.h"
#include "util/cache_line.h"
#include "util/time.h"

namespace pels {

/// Per-colour arrival/drop/departure accounting, kept by every discipline.
struct ColorCounters {
  std::uint64_t arrivals[kNumColors] = {};
  std::uint64_t drops[kNumColors] = {};
  std::uint64_t departures[kNumColors] = {};
  std::uint64_t arrival_bytes[kNumColors] = {};
  std::uint64_t drop_bytes[kNumColors] = {};

  void count_arrival(const Packet& p) {
    const auto c = static_cast<std::size_t>(p.color);
    ++arrivals[c];
    arrival_bytes[c] += static_cast<std::uint64_t>(p.size_bytes);
  }
  void count_drop(const Packet& p) {
    const auto c = static_cast<std::size_t>(p.color);
    ++drops[c];
    drop_bytes[c] += static_cast<std::uint64_t>(p.size_bytes);
  }
  void count_departure(const Packet& p) { ++departures[static_cast<std::size_t>(p.color)]; }

  std::uint64_t total_arrivals() const {
    std::uint64_t n = 0;
    for (auto v : arrivals) n += v;
    return n;
  }
  std::uint64_t total_drops() const {
    std::uint64_t n = 0;
    for (auto v : drops) n += v;
    return n;
  }
};

/// On its own cache line, like Link: every packet writes its queue's
/// counters, and neighbouring queues may belong to different domains.
class alignas(kCacheLineSize) QueueDisc : public CacheLineAllocated {
 public:
  virtual ~QueueDisc() = default;

  /// Offers a packet to the queue. Returns true if accepted, false if the
  /// packet (or another one, for push-out policies) was dropped. Counters
  /// observe every drop either way. The queue may move from `pkt`; the
  /// caller does not read it afterwards.
  virtual bool enqueue(Packet&& pkt) = 0;

  /// Moves the next packet to transmit into `out` and returns true, or
  /// returns false and leaves `out` untouched if the queue is empty.
  virtual bool dequeue(Packet& out) = 0;

  /// Number of queued packets.
  virtual std::size_t packet_count() const = 0;

  /// Total queued bytes.
  virtual std::int64_t byte_count() const = 0;

  bool empty() const { return packet_count() == 0; }

  const ColorCounters& counters() const { return counters_; }
  ColorCounters& counters() { return counters_; }

 protected:
  /// Records a drop in the counters.
  void note_drop(const Packet& pkt) { counters_.count_drop(pkt); }

 private:
  ColorCounters counters_;
};

}  // namespace pels
