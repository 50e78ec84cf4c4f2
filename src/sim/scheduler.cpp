#include "sim/scheduler.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace pels {

namespace {

/// First set bit at index >= `from` in a 256-bit bitmap, or kNone.
constexpr std::size_t kNoBucket = 256;

std::size_t find_occupied_from(const std::array<std::uint64_t, 4>& occ,
                               std::size_t from) {
  std::size_t w = from >> 6;
  std::uint64_t word = occ[w] & (~std::uint64_t{0} << (from & 63));
  for (;;) {
    if (word != 0) return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
    if (++w >= occ.size()) return kNoBucket;
    word = occ[w];
  }
}

/// Prefetches a slot's full cache footprint (a 48-byte slot straddles two
/// lines at most). The level-0 purge walks entries that were scheduled up to
/// a whole pacing horizon ago, so at population scale every slot touch there
/// is a guaranteed miss; prefetching a few entries ahead overlaps those
/// misses with the purge bookkeeping.
inline void prefetch_slot(const void* p, std::size_t bytes) {
#if defined(__GNUC__) || defined(__clang__)
  const char* c = static_cast<const char*>(p);
  __builtin_prefetch(c, 1);
  __builtin_prefetch(c + bytes - 1, 1);
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace

void Scheduler::throw_past_schedule(SimTime t) const {
  throw std::logic_error("Scheduler::schedule_at: t = " + std::to_string(t) +
                         " ns is before now() = " + std::to_string(now_) + " ns");
}

std::uint32_t Scheduler::new_block() {
  const auto blk = static_cast<std::uint32_t>(blocks_.size());
  blocks_.emplace_back();
  next_block_.push_back(kNoBlock);
  return blk;
}

void Scheduler::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!later(heap_[parent], e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Scheduler::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c)
      if (later(heap_[best], heap_[c])) best = c;
    if (!later(e, heap_[best])) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

Scheduler::Entry Scheduler::pop_top() {
  const Entry e = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return e;
}

Scheduler::Callback Scheduler::take_callback(const Entry& e) {
  Slot& s = slots_[e.slot];
  // A copy, not a move: captures are trivially copyable, and schedule_at
  // overwrites the slot's copy when the slot is reused.
  Callback fn = s.fn;
  if (++s.gen == 0) s.gen = 1;
  // A run-staged wheel entry keeps its residency flag until it executes (the
  // level-0 purge is read-only on slots); settle it here, where ++gen has
  // already dirtied the line.
  if (s.where != kNotInWheel) {
    s.where = kNotInWheel;
    --wheel_live_;
  }
  free_slots_.push_back(e.slot);
  --pending_;
  return fn;
}

void Scheduler::find_earliest_bucket(int* level, std::size_t* pos,
                                     std::uint64_t* abs_idx, SimTime* start) const {
  const std::uint64_t f0 = frontier_idx0();
  bool found = false;
  for (int l = 0; l < kWheelLevels; ++l) {
    const std::uint64_t fl = f0 >> (l * kWheelBits);
    const auto from = static_cast<std::size_t>(fl & (kWheelBuckets - 1));
    const std::size_t p = find_occupied_from(wheel_[l].occupancy, from);
    if (p == kNoBucket) continue;
    const std::uint64_t abs = (fl & ~static_cast<std::uint64_t>(kWheelBuckets - 1)) + p;
    const auto s = static_cast<SimTime>(abs << (kWheelShift + l * kWheelBits));
    // <= : on equal starts the higher level wins, so a bucket containing the
    // frontier cascades before the frontier's own level-0 bucket is loaded.
    if (!found || s <= *start) {
      found = true;
      *level = l;
      *pos = p;
      *abs_idx = abs;
      *start = s;
    }
  }
  assert(found && "occupancy bitmaps empty despite occupied wheel");
}

void Scheduler::load_run(std::size_t pos, std::uint64_t abs_idx) {
  assert(run_pos_ >= run_.size() && "run buffer must be exhausted before a load");
  run_.clear();
  run_pos_ = 0;
  Bucket& b = wheel_[0].buckets[pos];
  constexpr std::size_t kAhead = 16;
  for (std::uint32_t blk = b.head;; blk = next_block_[blk]) {
    const Entry* es = blocks_[blk].entries.data();
    const bool last = blk == b.tail;
    const std::size_t n = last ? b.fill : kBlockEntries;
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kAhead < n) prefetch_slot(&slots_[es[i + kAhead].slot], sizeof(Slot));
      const Entry& e = es[i];
      // Read-only on the slot: live entries stay counted in wheel_live_ while
      // staged in the run (take_callback settles the flag and the count when
      // they execute, on a line ++gen dirties anyway), so the purge never
      // dirties these cold lines just to clear residency. Stale entries were
      // already settled by cancel().
      if (slots_[e.slot].gen != e.gen) {
        ++stale_skipped_;
        continue;
      }
      run_.push_back(e);
    }
    if (last) break;
  }
  // The bucket keeps its first block for its next wrap and the rest of the
  // chain goes back on the free list. Where buckets hold a few entries each
  // (fattree-churn: 3.7 events per drain), returning every drained block
  // and taking one again at the next placement cost ~5 ns per event. A kept
  // block is that bucket's one partial block, so the reserve() bound holds.
  if (b.tail != b.head) {
    next_block_[b.tail] = free_block_;
    free_block_ = next_block_[b.head];
    b.tail = b.head;
  }
  b.fill = 0;
  wheel_[0].occupancy[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
  std::sort(run_.begin(), run_.end(), [](const Entry& a, const Entry& c) {
    return a.t != c.t ? a.t < c.t : a.seq < c.seq;
  });
  // Schedules landing back inside the drained bucket's window join this run
  // at their (t, seq) place (place_in_run), or the heap when that place is
  // too deep; the run and the heap merge by (t, seq).
  run_bucket_ = static_cast<std::int64_t>(abs_idx);
  ++bucket_loads_;
}

void Scheduler::cascade(int level, std::size_t pos) {
  // Re-placed entries land in strictly lower levels (the cascaded bucket
  // contains the new frontier, so the XOR level rule cannot pick `level`
  // again) or on the heap for the already-drained window, never back in
  // this bucket, so it is detached first and walked block by block.
  const Bucket b = wheel_[level].buckets[pos];
  wheel_[level].buckets[pos] = Bucket{};
  wheel_[level].occupancy[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
  const std::uint64_t f0 = frontier_idx0();
  for (std::uint32_t blk = b.head;;) {
    const bool last = blk == b.tail;
    const std::size_t n = last ? b.fill : kBlockEntries;
    for (std::size_t i = 0; i < n; ++i) {
      // A copy: placing may link a block and reallocate blocks_.
      const Entry e = blocks_[blk].entries[i];
      // The common path is slot-free: entries re-place on (t, seq) alone, and
      // cancelled ones ride along until the level-0 purge. Only the rare heap
      // fallback (an entry behind the drain frontier) checks the generation,
      // because moving an entry out of the wheel must fix the slot-side
      // residency bookkeeping.
      if (!place_in_wheel(e, f0)) {
        Slot& s = slots_[e.slot];
        if (s.gen != e.gen) {  // cancelled while wheel-resident: purge
          ++stale_skipped_;
          continue;
        }
        s.where = kNotInWheel;
        --wheel_live_;
        heap_.push_back(e);
        sift_up(heap_.size() - 1);
      }
    }
    // Free each block once its entries are re-placed: the next block a lower
    // bucket links is this warm one, and at most one block's entries are
    // ever held twice, which the reserve() bound covers.
    const std::uint32_t next = next_block_[blk];
    next_block_[blk] = free_block_;
    free_block_ = blk;
    if (last) break;
    blk = next;
  }
  ++cascades_;
}

bool Scheduler::prepare_next() {
  for (;;) {
    // Prune stale entries at both fronts so callers compare live ones only.
    while (run_pos_ < run_.size() &&
           slots_[run_[run_pos_].slot].gen != run_[run_pos_].gen) {
      ++run_pos_;
      ++stale_skipped_;
    }
    if (run_pos_ >= run_.size() && !run_.empty()) {
      run_.clear();  // keeps capacity
      run_pos_ = 0;
    }
    while (!heap_.empty() &&
           slots_[heap_.front().slot].gen != heap_.front().gen) {
      pop_top();
      ++stale_skipped_;
    }
    if (run_pos_ < run_.size()) {
      // Every live wheel bucket starts after the drained bucket the run was
      // loaded from, so the run head already bounds the wheel; the heap is
      // merged at take time.
      return true;
    }
    if (wheel_live_ == 0) return !heap_.empty();
    int level = 0;
    std::size_t pos = 0;
    std::uint64_t abs_idx = 0;
    SimTime start = 0;
    find_earliest_bucket(&level, &pos, &abs_idx, &start);
    // When the heap front strictly precedes the earliest bucket's window it
    // is globally next; a tie on the window start must drain the bucket so
    // the (t, seq) merge can decide.
    if (!heap_.empty() && heap_.front().t < start) return true;
    if (level == 0) {
      load_run(pos, abs_idx);
    } else {
      const auto frontier = static_cast<std::int64_t>(start >> kWheelShift) - 1;
      run_bucket_ = std::max(run_bucket_, frontier);
      cascade(level, pos);
    }
  }
}

bool Scheduler::step() {
  if (!prepare_next()) return false;
  const bool have_run = run_pos_ < run_.size();
  const bool from_run =
      have_run && (heap_.empty() || !later(run_[run_pos_], heap_.front()));
  const Entry e = from_run ? run_[run_pos_++] : pop_top();
  Callback fn = take_callback(e);
  now_ = e.t;
  ++executed_;
  fn();
  return true;
}

void Scheduler::run_until(SimTime t_end) {
  // Each entry's generation is checked exactly once (at the prune in
  // prepare_next or its bucket drain), and stale entries are dropped without
  // advancing time.
  while (prepare_next()) {
    const bool have_run = run_pos_ < run_.size();
    const bool from_run =
        have_run && (heap_.empty() || !later(run_[run_pos_], heap_.front()));
    const Entry& top = from_run ? run_[run_pos_] : heap_.front();
    if (top.t > t_end) break;
    const Entry e = from_run ? run_[run_pos_++] : pop_top();
    Callback fn = take_callback(e);
    now_ = e.t;
    ++executed_;
    fn();
  }
  if (now_ < t_end) now_ = t_end;
}

SimTime Scheduler::peek_next_time() {
  if (!prepare_next()) return kTimeNever;
  SimTime best = kTimeNever;
  if (run_pos_ < run_.size()) best = run_[run_pos_].t;
  if (!heap_.empty() && heap_.front().t < best) best = heap_.front().t;
  return best;
}

void Scheduler::run() {
  while (step()) {
  }
}

}  // namespace pels
