// Queue-discipline interface.
//
// A QueueDisc is a pure queueing object: enqueue() accepts or drops a packet,
// dequeue() moves the next packet to transmit into a caller-owned slot (the
// link's in-flight ring), so a packet leaves nested disciplines without an
// intermediate copy per layer. Timing (serialization and
// propagation) belongs to Link, mirroring the ns-2 Queue/DelayLink split the
// paper's implementation used. Concrete disciplines (DropTail, RED, strict
// priority, WRR, the PELS composite) live in src/queue.
#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.h"
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

class QueueDisc {
 public:
  using DropHandler = std::function<void(const Packet&)>;

  virtual ~QueueDisc() = default;

  /// Offers a packet to the queue. Returns true if accepted, false if the
  /// packet (or another one, for push-out policies) was dropped. Counters and
  /// the drop handler observe every drop either way. The queue may move from
  /// `pkt`; the caller does not read it afterwards.
  virtual bool enqueue(Packet&& pkt) = 0;

  /// Moves the next packet to transmit into `out` and returns true, or
  /// returns false and leaves `out` untouched if the queue is empty.
  virtual bool dequeue(Packet& out) = 0;

  /// Next packet that dequeue() would return, or nullptr if empty. Needed by
  /// deficit-round-robin schedulers to check head sizes without dequeuing.
  virtual const Packet* peek() const = 0;

  /// Number of queued packets.
  virtual std::size_t packet_count() const = 0;

  /// Total queued bytes.
  virtual std::int64_t byte_count() const = 0;

  bool empty() const { return packet_count() == 0; }

  /// Installs a callback invoked for every dropped packet (after counting).
  void set_drop_handler(DropHandler h) { drop_handler_ = std::move(h); }

  const ColorCounters& counters() const { return counters_; }
  ColorCounters& counters() { return counters_; }

 protected:
  /// Records a drop in the counters and notifies the handler.
  void note_drop(const Packet& pkt) {
    counters_.count_drop(pkt);
    if (drop_handler_) drop_handler_(pkt);
  }

 private:
  ColorCounters counters_;
  DropHandler drop_handler_;
};

}  // namespace pels
