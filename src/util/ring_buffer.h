// Growable power-of-two ring buffer (FIFO).
//
// std::deque is the obvious FIFO, but libstdc++ allocates/frees a block for
// roughly every 4-5 Packets that pass through, which keeps a per-packet
// allocation on the hot path even after the scheduler and callbacks are
// allocation-free. A ring over a flat vector reaches a steady state after
// warm-up and never touches the heap again; Link's in-flight pipeline, the
// DropTailQueue FIFO and PelsQueue's three priority bands all sit on this.
// Capacity grows on demand to the high-water mark and never shrinks; queues
// deliberately do not reserve their limit, because a ring far wider than its
// occupancy walks its head through cold slots on every push. Indexing is
// mask-based, so capacity is always a power of two.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace pels {

/// FIFO of move-assignable, default-constructible values. Elements are
/// default-constructed once per slot at growth time and re-assigned on push,
/// so T's assignment must release prior state (true for Packet's Box).
template <typename T>
class RingBuffer {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return slots_.size(); }

  T& front() {
    assert(count_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    assert(count_ > 0);
    return slots_[head_];
  }
  T& back() {
    assert(count_ > 0);
    return slots_[(head_ + count_ - 1) & mask()];
  }

  /// i-th element from the front (0 = front). For diagnostics/tests.
  const T& at(std::size_t i) const {
    assert(i < count_);
    return slots_[(head_ + i) & mask()];
  }

  void push_back(T&& value) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) & mask()] = std::move(value);
    ++count_;
  }

  T pop_front() {
    assert(count_ > 0);
    T value = std::move(slots_[head_]);
    drop_front();
    return value;
  }

  /// Removes the front element without moving it out: its slot keeps the
  /// value until a later push refills the slot, so a caller may take
  /// `front()` by reference, drop it, and then consume it — as long as
  /// nothing pushes onto this ring in between.
  void drop_front() {
    assert(count_ > 0);
    head_ = (head_ + 1) & mask();
    --count_;
  }

  bool full() const { return count_ == slots_.size(); }

  /// The slot the next push fills, growing the ring when it is full. It
  /// holds a stale value; the caller overwrites what it needs, then
  /// commit_back() makes it the new back element.
  T& back_slot() {
    if (full()) grow();
    return slots_[(head_ + count_) & mask()];
  }
  void commit_back() {
    assert(count_ < slots_.size());
    ++count_;
  }

  /// Pre-sizes to at least `n` slots (rounded up to a power of two).
  void reserve(std::size_t n) {
    std::size_t cap = slots_.empty() ? kInitialCapacity : slots_.size();
    while (cap < n) cap *= 2;
    if (cap > slots_.size()) regrow(cap);
  }

  void clear() {
    // Reset slots so held resources (boxed acks) are released now, not at
    // the next overwrite.
    for (std::size_t i = 0; i < count_; ++i) slots_[(head_ + i) & mask()] = T{};
    head_ = 0;
    count_ = 0;
  }

 private:
  static constexpr std::size_t kInitialCapacity = 8;

  std::size_t mask() const { return slots_.size() - 1; }

  void grow() { regrow(slots_.empty() ? kInitialCapacity : slots_.size() * 2); }

  void regrow(std::size_t new_cap) {
    // Unroll into a fresh vector so head_ returns to 0.
    std::vector<T> grown;
    grown.reserve(new_cap);
    for (std::size_t i = 0; i < count_; ++i) {
      grown.push_back(std::move(slots_[(head_ + i) & mask()]));
    }
    grown.resize(new_cap);
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace pels
