// Discrete-event scheduler: the heart of the simulator.
//
// Events live in a two-tier queue. A hierarchical timing wheel (calendar
// tier) absorbs the dense near-future load produced by per-source pacing and
// periodic control timers; a 4-ary min-heap holds what the wheel cannot:
// events beyond its 36.7 min horizon, everything in wheel-off mode, and the
// rare near-window insertion too deep in the sorted run (below). Ties in
// time break by insertion order across both tiers, so execution is fully
// deterministic and byte-identical to a heap-only scheduler (see DESIGN.md
// "Event model").
//
// Hot-path design (this is the inner loop under every figure/ablation
// binary, so the layout matters):
//   * Queue entries are small PODs {time, seq, slot, generation}; the
//     callbacks live in a pooled slot vector so neither heap sifts nor wheel
//     cascades ever move a callback.
//   * The wheel has 3 levels x 256 buckets at 2^17 ns (131 us) level-0
//     granularity: spans of ~33.6 ms / 8.6 s / 36.7 min. Scheduling into the
//     wheel is O(1) (level by XOR of level-0 bucket indices against the
//     drain frontier); events beyond the span fall back to the heap. A
//     level-0 bucket is drained by sorting it once into a run buffer;
//     higher-level buckets cascade downward as the frontier reaches them.
//     Per-level occupancy bitmaps make "find the earliest non-empty bucket"
//     four ctz scans.
//   * An event landing inside the already-drained window (a link event a
//     few us out, the common case on a busy hop) joins the sorted run at its
//     (t, seq) place instead of the heap: it has the newest seq, so it goes
//     after every staged entry with t <= its t, and the entries ahead of it
//     slide one slot back into the run's consumed prefix. The slide is
//     bounded by kMaxRunSlide; a deeper place (a bucket of thousands of
//     equal-time events) goes to the heap, so insertion never turns
//     quadratic.
//   * Callbacks are thunks, not std::functions: a function pointer plus a
//     32-byte trivially copyable capture. Every event captures
//     `[this, index]`-sized state, so a slot is 48 bytes and 10^6 pending
//     timers cost 48 MB of slots, not 176. Storing, retiring and invoking a
//     callback is a plain copy and one indirect call; there is no relocate
//     or destroy step. Nothing rides an event by value; packets wait in
//     their owner's ring (link in-flight ring, boundary-link inbox) and the
//     event names only the owner.
//   * Cancellation is generation-tagged: an EventId packs (slot, generation)
//     and cancel() just bumps the slot's generation — O(1) in both tiers
//     (wheel residents additionally flip the slot's residency flag and drop
//     the global wheel live count; the dead entry rides any cascades and is
//     purged when its level-0 bucket is drained). A stale entry (generation
//     mismatch) is skipped when it reaches the front. Executed slots also
//     bump the generation, so an old id can never cancel a later event that
//     happens to reuse its slot.
//   * Wheel storage is one pool of fixed-size entry blocks; a bucket is a
//     chain of blocks. A drained level-0 bucket keeps its first block; the
//     rest, and every cascaded block, go back on a LIFO free list.
//     reserve(events) sizes the pool to the most `events` entries can
//     occupy across the 768 buckets, so the wheel cannot grow after it.
//     Slots, heap storage and the run buffer are recycled via free lists /
//     reserve() / clear-not-shrink, so the steady state allocates nothing
//     per event.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.h"

namespace pels {

/// Identifies a scheduled event for cancellation: packs (slot index <<32 |
/// slot generation). Generations start at 1, so 0 is never a valid id.
using EventId = std::uint64_t;

/// Inline capture budget for scheduler callbacks: four words, enough for
/// `[this, index]` or `[link, queue, until, factor]`. A capture that does not
/// fit is a compile error (tests/compile_fail pins that), never a heap box:
/// state larger than this belongs in a pool or ring its owner keeps, with
/// the event naming the owner. With the 8-byte function pointer and the
/// slot's generation/residency words, the budget makes Scheduler::Slot
/// exactly 48 bytes; net/link.cpp and exp/domain_runner.cpp pin both.
inline constexpr std::size_t kSchedulerCallbackCapacity = 32;

class Scheduler {
 public:
  /// A scheduled event's action: a function pointer plus an inline copy of
  /// the callable. The capture must fit kSchedulerCallbackCapacity, be
  /// trivially copyable and trivially destructible, and need no more than
  /// pointer alignment — compile errors otherwise (tests/compile_fail). That
  /// is what lets the slot pool copy callbacks as bytes and drop them
  /// without a destructor call: a capture of `this`, indices, raw pointers
  /// and references qualifies; a std::function, std::string or smart
  /// pointer does not, and belongs with the owner the event names.
  class Callback {
   public:
    Callback() = default;
    Callback(std::nullptr_t) {}  // NOLINT(runtime/explicit)

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                          std::is_invocable_r_v<void, D&>>>
    Callback(F&& f) : invoke_(&invoke<D>) {  // NOLINT(runtime/explicit)
      static_assert(sizeof(D) <= kSchedulerCallbackCapacity,
                    "scheduler callback capture too large — keep large state "
                    "with its owner and capture a pointer or index (see "
                    "kSchedulerCallbackCapacity)");
      static_assert(alignof(D) <= alignof(void*),
                    "scheduler callback capture over-aligned");
      static_assert(std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>,
                    "scheduler callback capture must be trivially copyable and "
                    "destructible: capture `this`, indices or pointers, not "
                    "owning objects");
      ::new (static_cast<void*>(capture_)) D(std::forward<F>(f));
    }

    explicit operator bool() const { return invoke_ != nullptr; }

    void operator()() {
      assert(invoke_ != nullptr && "calling an empty scheduler callback");
      invoke_(capture_);
    }

    static constexpr std::size_t capacity() { return kSchedulerCallbackCapacity; }

   private:
    template <typename D>
    static void invoke(void* capture) {
      (*std::launder(reinterpret_cast<D*>(capture)))();
    }

    void (*invoke_)(void*) = nullptr;
    alignas(void*) unsigned char capture_[kSchedulerCallbackCapacity];
  };

  /// Counters for diagnostics and microbenches. `executed`/`cancelled`/
  /// `stale_skipped`/`bucket_loads`/`cascades` are lifetime totals; the rest
  /// describe current state.
  struct Stats {
    std::uint64_t scheduled = 0;      // schedule_at/in calls
    std::uint64_t executed = 0;       // callbacks run
    std::uint64_t cancelled = 0;      // successful cancel() calls
    std::uint64_t stale_skipped = 0;  // cancelled entries dropped at drain
    std::uint64_t bucket_loads = 0;   // level-0 buckets sorted into the run
    std::uint64_t cascades = 0;       // higher-level buckets re-placed down
    std::size_t pending = 0;          // live events awaiting execution
    std::size_t heap_size = 0;        // heap entries incl. stale ones
    std::size_t wheel_entries = 0;    // live events in wheel buckets or the run
    std::size_t run_entries = 0;      // events staged in the sorted run
    std::size_t slots = 0;            // pooled callback slots allocated
    std::size_t heap_capacity = 0;    // heap vector capacity (growth probe)
    std::size_t slot_capacity = 0;    // slot pool capacity (growth probe)
    std::size_t wheel_capacity = 0;   // block pool capacity in entries (growth probe)
    std::size_t run_capacity = 0;     // run buffer capacity (growth probe)
    std::size_t wheel_blocks_peak = 0;  // high-water mark of wheel blocks in use
    // Resident cost of one pending event: its pooled slot plus its queue
    // entry (heap or wheel bucket). pending * (slot_bytes + entry_bytes) is
    // the scheduler's share of per-flow memory in timer-per-flow drivers.
    std::size_t slot_bytes = 0;
    std::size_t entry_bytes = 0;
  };

  /// Entries per wheel block: 32 x 24 B = 768 B, 12 cache lines. Each
  /// occupied bucket holds one partial block, so small simulations, with a
  /// few entries in each of hundreds of buckets, favour small blocks
  /// (EXPERIMENTS.md compares 16, 32 and 64).
  static constexpr std::size_t kBlockEntries = 32;

  /// Current simulation time. Starts at 0.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `t` (>= now). Returns an id
  /// usable with cancel(). Defined inline: this is the hottest call in the
  /// simulator and every caller benefits from seeing the free-list ops.
  /// Throws std::logic_error when `t` is before now(), in every build.
  EventId schedule_at(SimTime t, Callback fn) {
    if (t < now_) [[unlikely]] throw_past_schedule(t);
    assert(fn && "callback must be callable");
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.fn = fn;
    const Entry e{t, next_seq_++, slot, s.gen};
    bool resident = false;
    if (wheel_enabled_) {
      const std::uint64_t f0 = frontier_idx0();
      resident = bucket_index0(t) < f0 ? place_in_run(e) : place_in_wheel(e, f0);
    }
    if (resident) {
      // Run-staged events count as wheel residents too, so cancel() and
      // take_callback() settle them exactly like drained bucket entries.
      s.where = kInWheel;
      ++wheel_live_;
    } else {
      s.where = kNotInWheel;
      heap_.push_back(e);
      sift_up(heap_.size() - 1);
    }
    ++pending_;
    return pack(slot, s.gen);
  }

  /// Schedules `fn` to run `delay` (>= 0) after now.
  EventId schedule_in(SimTime delay, Callback fn) {
    return schedule_at(now_ + delay, fn);
  }

  /// Cancels a pending event. Returns true if the event was still pending.
  bool cancel(EventId id) {
    const auto slot = static_cast<std::uint32_t>(id >> 32);
    const auto gen = static_cast<std::uint32_t>(id);
    if (slot >= slots_.size()) return false;
    Slot& s = slots_[slot];
    // A generation mismatch means the event already executed, was already
    // cancelled, or the slot has been reused by a newer event: all no-ops.
    if (s.gen != gen) return false;
    // Bumping the generation is the cancellation; the stale entry is skipped
    // (heap/run) or purged at bucket drain (wheel). Skip generation 0 so ids
    // are never 0. Wheel residents drop the global live count here so an
    // all-cancelled wheel never blocks the "wheel empty" fast path.
    if (s.where != kNotInWheel) {
      --wheel_live_;
      s.where = kNotInWheel;
    }
    if (++s.gen == 0) s.gen = 1;
    free_slots_.push_back(slot);
    --pending_;
    ++cancelled_;
    return true;
  }

  /// True if no runnable (non-cancelled) events remain.
  bool empty() const { return pending_ == 0; }

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const { return pending_; }

  /// Runs the next event; returns false if none remain.
  bool step();

  /// Runs events until the queue drains or time would exceed `t_end`.
  /// Events scheduled exactly at `t_end` are executed. On return, now() is
  /// min(t_end, drain time).
  void run_until(SimTime t_end);

  /// Timestamp of the earliest pending (non-cancelled) event, or kTimeNever
  /// when none remain. Prunes stale entries encountered at the front — the
  /// same lazy sweep run_until performs — so the answer reflects live events
  /// only. This is the lookahead-window hook: DomainRunner sizes the next
  /// synchronization window from the minimum across all domain schedulers,
  /// letting idle stretches be skipped in one hop instead of
  /// barrier-stepping through empty windows.
  SimTime peek_next_time();

  /// Runs until the event queue is empty.
  void run();

  /// Total number of events executed so far (for diagnostics/microbenches).
  std::uint64_t executed() const { return executed_; }

  /// Routes all future schedule_at calls to the heap when disabled (events
  /// already resident in the wheel drain normally). The wheel is on by
  /// default; the off switch exists so benches and determinism tests can
  /// measure a heap-only baseline against the exact same workload.
  void set_wheel_enabled(bool enabled) { wheel_enabled_ = enabled; }

  /// Bytes of one pooled callback slot and of one queue entry, at compile
  /// time so layout contracts can be static_asserted.
  static constexpr std::size_t slot_bytes() { return sizeof(Slot); }
  static constexpr std::size_t entry_bytes() { return sizeof(Entry); }

  /// Snapshot of scheduler counters.
  Stats stats() const {
    Stats s;
    s.scheduled = next_seq_;  // one seq per schedule_at call
    s.executed = executed_;
    s.cancelled = cancelled_;
    s.stale_skipped = stale_skipped_;
    s.bucket_loads = bucket_loads_;
    s.cascades = cascades_;
    s.pending = pending_;
    s.heap_size = heap_.size();
    s.wheel_entries = wheel_live_;
    s.run_entries = run_.size() - run_pos_;
    s.slots = slots_.size();
    s.heap_capacity = heap_.capacity();
    s.slot_capacity = slots_.capacity();
    s.wheel_capacity = blocks_.capacity() * kBlockEntries;
    s.run_capacity = run_.capacity();
    // Blocks are bump-allocated only when the free list is empty, so the
    // number ever handed out is the high-water mark of blocks in use.
    s.wheel_blocks_peak = blocks_.size();
    s.slot_bytes = slot_bytes();
    s.entry_bytes = entry_bytes();
    return s;
  }

  /// Pre-sizes the heap, slot pool, run buffer, and wheel block pool for
  /// `events` concurrent events, so a warm simulation never grows a pool
  /// mid-run (the Stats *_capacity probes let benches assert that).
  void reserve(std::size_t events) {
    heap_.reserve(events);
    slots_.reserve(events);
    free_slots_.reserve(events);
    // The run buffer holds one drained level-0 bucket: worst case every
    // pending event shares a bucket, so size it like the heap.
    run_.reserve(events);
    // However `events` entries spread over the 768 buckets, each bucket
    // holds at most one partial (or kept empty) tail block, and a cascade
    // frees each source block as soon as it is re-placed. Reserving is address space only:
    // blocks are touched when first handed out.
    const std::size_t blocks =
        (events + kBlockEntries - 1) / kBlockEntries + kWheelLevels * kWheelBuckets;
    blocks_.reserve(blocks);
    next_block_.reserve(blocks);
  }

 private:
  /// POD queue entry; the callback lives in slots_[slot]. 24 bytes, cheap to
  /// sift or cascade. `gen` must match the slot's generation or the entry is
  /// stale.
  struct Entry {
    SimTime t;
    std::uint64_t seq;  // tie-break: FIFO among equal times
    std::uint32_t slot;
    std::uint32_t gen;
  };
  /// Heap order on (t, seq): "a is served later than b". The heap is 4-ary
  /// (children of i at 4i+1..4i+4): half the levels of a binary heap and
  /// sibling entries share cache lines, which measures ~20% faster on the
  /// schedule/run microbench than std::push_heap/pop_heap.
  static bool later(const Entry& a, const Entry& b) {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  // Timing-wheel geometry. Level-0 buckets are 2^17 ns = 131.072 us wide —
  // finer than any pacing interval worth wheeling (a 100 Mbps source paces
  // ~80 us apart and such micro-gaps belong on the heap anyway), coarse
  // enough that one bucket rarely holds more than a handful of events at
  // paper scale. Spans: L0 33.6 ms, L1 8.6 s, L2 36.7 min; beyond that the
  // heap is the far tier.
  static constexpr int kWheelLevels = 3;
  static constexpr int kWheelBits = 8;
  static constexpr std::size_t kWheelBuckets = std::size_t{1} << kWheelBits;
  static constexpr int kWheelShift = 17;  // log2(level-0 bucket width in ns)
  static constexpr std::uint32_t kNotInWheel = 0xffffffffu;
  static constexpr std::uint32_t kInWheel = 0;
  static constexpr std::uint32_t kNoBlock = 0xffffffffu;
  /// Most run entries an insertion behind the drain frontier may move (see
  /// place_in_run). Such an insertion usually lands a few entries past the
  /// run head; the bound only stops a bucket of many equal-time events from
  /// making each one linear in the bucket.
  static constexpr std::size_t kMaxRunSlide = 32;

  /// Fixed-size unit of wheel storage, addressed by its index in blocks_.
  /// Chain links live in next_block_, so a block is entries only.
  struct Block {
    std::array<Entry, kBlockEntries> entries;
  };
  /// A chain of blocks; entries may be stale (purged at drain). An empty
  /// bucket either has no blocks and a full "tail", so the first append
  /// links one, or keeps one empty block after a level-0 drain.
  struct Bucket {
    std::uint32_t head = kNoBlock;
    std::uint32_t tail = kNoBlock;
    std::uint32_t fill = kBlockEntries;  // entries used in the tail block
  };
  struct WheelLevel {
    std::array<Bucket, kWheelBuckets> buckets;
    // One bit per bucket that has entries (live or stale) awaiting drain.
    std::array<std::uint64_t, kWheelBuckets / 64> occupancy{};
  };

  /// Pooled callback storage. The generation advances on every execution or
  /// cancellation, invalidating outstanding ids/queue entries for the slot.
  /// `where` is a residency flag (kInWheel / kNotInWheel) so cancel() can
  /// keep the global wheel live count exact in O(1). Deliberately not a
  /// bucket backref: cascades move entries between buckets without touching
  /// the slot table, which keeps the re-place loop free of random-access
  /// slot traffic (the dominant cost at 10^5..10^6 pending timers). The flag
  /// stays set while an entry is staged in the run buffer and settles at
  /// execution or cancellation — the two places that dirty the line anyway —
  /// so the level-0 purge reads slots without writing them back.
  struct Slot {
    Callback fn;
    std::uint32_t gen = 1;
    std::uint32_t where = kNotInWheel;
  };

  static EventId pack(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot) << 32) | gen;
  }

  /// Level-0 bucket index of an absolute time.
  static std::uint64_t bucket_index0(SimTime t) {
    return static_cast<std::uint64_t>(t) >> kWheelShift;
  }

  /// The drain frontier: the first level-0 bucket index that has not been
  /// drained yet. Everything scheduled before it goes into the sorted run
  /// (place_in_run) or, failing that, the heap; the run and the heap merge
  /// by (t, seq), so late arrivals into the drained window stay correctly
  /// ordered either way.
  std::uint64_t frontier_idx0() const {
    const std::uint64_t by_now = bucket_index0(now_);
    const auto by_drain = static_cast<std::uint64_t>(run_bucket_ + 1);
    return by_now > by_drain ? by_now : by_drain;
  }

  /// Places `e` into the wheel if it lands within the span; returns false
  /// when the event belongs on the heap (past the frontier's bucket, or
  /// beyond the wheel horizon). The level is picked by XOR of level-0 bucket
  /// indices against the frontier, which confines each level's placements to
  /// the frontier's aligned 256-block — so the physical index
  /// (t >> shift) & 255 can never collide with a later wrap of the same
  /// bucket, and a cascaded bucket always re-places strictly below its own
  /// level. Touches only the bucket, never slots_: the caller owns the
  /// slot-side bookkeeping (schedule_at marks residency; cascade() re-places
  /// entries whose slots are already marked, stale ones included). `f0` is
  /// the caller's frontier_idx0() — hoisted to a parameter so cascade(),
  /// whose frontier is fixed for the whole re-place loop, computes it once.
  /// `e` must not live in blocks_, which append_block may reallocate.
  bool place_in_wheel(const Entry& e, std::uint64_t f0) {
    const std::uint64_t idx0 = bucket_index0(e.t);
    if (idx0 < f0) return false;
    const std::uint64_t diff = idx0 ^ f0;
    int level;
    if (diff < (std::uint64_t{1} << kWheelBits)) {
      level = 0;
    } else if (diff < (std::uint64_t{1} << (2 * kWheelBits))) {
      level = 1;
    } else if (diff < (std::uint64_t{1} << (3 * kWheelBits))) {
      level = 2;
    } else {
      return false;
    }
    const auto pos = static_cast<std::size_t>(
        (idx0 >> (level * kWheelBits)) & (kWheelBuckets - 1));
    Bucket& b = wheel_[level].buckets[pos];
    if (b.fill == kBlockEntries) append_block(b);
    blocks_[b.tail].entries[b.fill++] = e;
    wheel_[level].occupancy[pos >> 6] |= std::uint64_t{1} << (pos & 63);
    return true;
  }

  /// Inserts `e`, the newest event and behind the drain frontier, into the
  /// sorted run at its (t, seq) place: after every staged entry with
  /// t <= e.t, since no staged entry has a later seq. Every live wheel
  /// bucket starts at or after the frontier, so the run stays ahead of the
  /// wheel. The staged entries ahead of `e` slide one slot back into the
  /// consumed prefix; with no prefix (a run not yet started) the entries
  /// behind it shift up instead. Returns false, leaving the run untouched,
  /// when either move would exceed kMaxRunSlide entries or an in-place
  /// insertion would grow the buffer; the caller then uses the heap.
  bool place_in_run(const Entry& e) {
    const std::size_t n = run_.size();
    std::size_t p = run_pos_;
    while (p < n && run_[p].t <= e.t) {
      if (p - run_pos_ == kMaxRunSlide) return false;
      ++p;
    }
    if (run_pos_ > 0) {
      std::copy(run_.begin() + static_cast<std::ptrdiff_t>(run_pos_),
                run_.begin() + static_cast<std::ptrdiff_t>(p),
                run_.begin() + static_cast<std::ptrdiff_t>(run_pos_ - 1));
      --run_pos_;
      run_[p - 1] = e;
      return true;
    }
    if (n - p > kMaxRunSlide || n == run_.capacity()) return false;
    run_.insert(run_.begin() + static_cast<std::ptrdiff_t>(p), e);
    return true;
  }

  /// Links a fresh block to `b`'s tail: the most recently freed one (still
  /// warm in cache), or a never-used one off the end of the pool. Inline,
  /// since events that open a bucket or fill its tail come through here. A
  /// chain ends at its bucket's tail, so the link of a block taken off the
  /// free list needs no reset.
  void append_block(Bucket& b) {
    std::uint32_t blk = free_block_;
    if (blk != kNoBlock) {
      free_block_ = next_block_[blk];
    } else {
      blk = new_block();
    }
    if (b.head == kNoBlock) {
      b.head = blk;
    } else {
      next_block_[b.tail] = blk;
    }
    b.tail = blk;
    b.fill = 0;
  }
  /// Bump-allocates a never-used block at the end of the pool.
  std::uint32_t new_block();
  /// Cold path of schedule_at's past-time check.
  [[noreturn, gnu::cold]] void throw_past_schedule(SimTime t) const;

  /// Ensures the globally next live event (if any) is at the run head or the
  /// heap top, draining/cascading wheel buckets as the frontier advances.
  /// Returns false when no live events remain anywhere.
  bool prepare_next();
  /// Earliest occupied bucket across levels (preferring the higher level on
  /// equal start times so containment cascades before loading). Caller
  /// guarantees some occupancy bit is set.
  void find_earliest_bucket(int* level, std::size_t* pos, std::uint64_t* abs_idx,
                            SimTime* start) const;
  /// Drains level-0 bucket `pos` (absolute index `abs_idx`) into the sorted
  /// run buffer, purging stale entries, and advances the frontier past it.
  void load_run(std::size_t pos, std::uint64_t abs_idx);
  /// Re-places a level>=1 bucket's entries; each lands strictly below
  /// `level` (or on the heap for the already-drained window: cascaded
  /// entries are not the newest, so place_in_run's ordering argument does
  /// not hold for them).
  void cascade(int level, std::size_t pos);

  /// Pops the top heap entry (caller guarantees non-empty).
  Entry pop_top();
  /// Retires `e`'s slot (bumps generation, frees it) and returns a copy of
  /// its callback, ready to invoke.
  Callback take_callback(const Entry& e);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;  // doubles as the lifetime scheduled count
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t stale_skipped_ = 0;
  std::uint64_t bucket_loads_ = 0;
  std::uint64_t cascades_ = 0;
  std::size_t pending_ = 0;
  bool wheel_enabled_ = true;
  std::size_t wheel_live_ = 0;       // live entries in wheel buckets or
                                     // staged in the run buffer
  std::int64_t run_bucket_ = -1;     // last drained level-0 bucket index
  std::vector<Entry> heap_;
  std::vector<Entry> run_;           // drained bucket, sorted by (t, seq)
  std::size_t run_pos_ = 0;          // consumption cursor into run_
  std::array<WheelLevel, kWheelLevels> wheel_;
  std::vector<Block> blocks_;              // the wheel's block pool
  std::vector<std::uint32_t> next_block_;  // chain / free-list link per block
  std::uint32_t free_block_ = kNoBlock;    // LIFO free list head
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace pels
