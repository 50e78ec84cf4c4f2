// Weighted round-robin scheduler over child queue disciplines.
//
// Implemented as deficit round robin (Shreedhar & Varghese): each child
// accumulates weight-proportional byte credit per round and is served while
// its head packet fits the credit. Byte-based credit makes the weights hold
// as *bandwidth* shares even with mixed packet sizes. PELS uses a two-child
// instance: {PELS strict-priority group, Internet FIFO} (paper §4.1, Fig. 4).
//
// peek() is on the router's per-transmission-opportunity hot path, so the
// DRR selection is memoized: the first peek after a state change runs the
// selection on scratch state (no allocation — the scratch vector is reused)
// and caches both the chosen head and the post-selection deficits; repeated
// peeks are O(1), and the dequeue that follows commits the cached state
// instead of re-running the selection. Any enqueue or dequeue invalidates
// the cache, keeping behavior identical to an uncached implementation.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/queue_disc.h"

namespace pels {

class WrrQueue : public QueueDisc {
 public:
  /// Maps a packet to a child index in [0, children). Must be pure.
  using Classifier = std::function<std::size_t(const Packet&)>;

  struct Child {
    std::unique_ptr<QueueDisc> queue;
    double weight;  // > 0; shares are weight / sum(weights)
  };

  /// `quantum_bytes` is the byte credit granted to a weight-1.0 child per
  /// round; it should be at least the MTU so every packet can eventually be
  /// served. A child's per-round credit (quantum * weight) is rounded up and
  /// floored at 1 byte so fractional weights can never starve it.
  WrrQueue(std::vector<Child> children, Classifier classify, std::int64_t quantum_bytes = 1500);

  bool enqueue(Packet&& pkt) override;
  bool dequeue(Packet& out) override;
  const Packet* peek() const override;
  std::size_t packet_count() const override;
  std::int64_t byte_count() const override;

  std::size_t child_count() const { return children_.size(); }
  /// Mutable child access invalidates the peek cache: the caller may change
  /// the child's contents behind WRR's back.
  QueueDisc& child(std::size_t i) {
    cache_valid_ = false;
    return *children_.at(i).queue;
  }
  const QueueDisc& child(std::size_t i) const { return *children_.at(i).queue; }
  double weight(std::size_t i) const { return children_.at(i).weight; }
  /// Committed DRR byte credit of child `i` (telemetry/diagnostics). Reads
  /// the committed deficit, not the memoized post-selection scratch state.
  std::int64_t deficit(std::size_t i) const { return deficit_.at(i); }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Runs (or reuses) the DRR selection without mutating committed state.
  /// Fills the cache: chosen child, its head, and post-selection deficits.
  std::size_t select() const;

  std::vector<Child> children_;
  Classifier classify_;
  std::int64_t quantum_bytes_;
  std::vector<std::int64_t> deficit_;
  std::size_t current_ = 0;

  // Memoized DRR selection (see header comment). `cached_deficit_` /
  // `cached_current_` hold the post-selection state dequeue() commits.
  mutable bool cache_valid_ = false;
  mutable std::size_t cached_choice_ = npos;
  mutable const Packet* cached_head_ = nullptr;
  mutable std::vector<std::int64_t> cached_deficit_;
  mutable std::size_t cached_current_ = 0;
};

}  // namespace pels
