// Conservative intra-scenario parallel DES: run one scenario on all cores.
//
// SweepRunner parallelizes *across* independent scenarios; DomainRunner
// parallelizes *within* one. The topology is partitioned into domains —
// node sets whose events execute on their own Simulation/Scheduler — and
// the only coupling between domains is packets crossing boundary links,
// which by construction take at least the link's propagation delay to
// arrive. That minimum delay is the classic conservative lookahead: every
// domain may run `lookahead` ahead of the others without ever receiving a
// message from its past.
//
// Execution is windowed (barrier flavour of the null-message idea):
//   1. pick the next window end = min(t_end, earliest pending event across
//      all domains + lookahead) — idle stretches are skipped in one hop;
//   2. run every domain's scheduler to the window end. With W effective
//      threads the caller's thread runs domains d % W == 0 and each of the
//      runner's W - 1 persistent workers runs the fixed share d % W == w.
//      (Persistent, unlike SweepRunner's per-batch helpers: a window is
//      tens of microseconds of work, about what starting and joining the
//      threads would cost each time.)
//      Workers and caller meet at an epoch-counter barrier: the caller
//      publishes the window end and bumps the epoch, each worker counts
//      itself out when its share is done, and whoever waits spins (with a
//      pause, yielding every 64 pauses) for kSpinBudget, then parks in
//      std::atomic::wait. At W = 1 no thread is started: the run is a
//      plain serial loop on the caller;
//   3. barrier: drain the boundary-link mailboxes in deterministic order
//      (link creation order, FIFO within a link) into the topology's
//      per-link inboxes (Topology::hand_off), scheduling one `[topology,
//      link]` arrival event per packet in the destination domain at its
//      precomputed deliver_at, which the lookahead guarantees is never in
//      the destination's past. The event pops its link's inbox head, so no
//      packet rides a scheduler callback and pending arrivals outlive the
//      runner.
//
// Determinism contract (same as SweepRunner's, DESIGN.md "Parallel
// experiments"): a run at threads=N is byte-identical to threads=1. Window
// boundaries are computed from simulation state only, each domain is
// single-threaded within a window, and barrier injections happen on the
// coordinating thread in a fixed order — so scheduler tie-break sequence
// numbers, RNG draws, and every metric are independent of thread count and
// thread placement.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/packet.h"
#include "net/topology.h"
#include "util/time.h"

namespace pels {

/// Destructive-interference granularity for padding the barrier counters and
/// mailboxes. A fixed 64 is used instead of
/// std::hardware_destructive_interference_size: the constant must not vary
/// with -mtune (it would change struct layouts across TUs), and 64 covers
/// every target this project builds on.
inline constexpr std::size_t kCacheLineSize = 64;

class DomainRunner {
 public:
  struct Stats {
    unsigned requested_threads = 0;
    unsigned effective_threads = 0;
    SimTime lookahead = kTimeNever;
    std::uint64_t windows = 0;   // barrier-separated execution windows
    std::uint64_t handoffs = 0;  // packets exchanged across domains
  };

  /// How long a thread waiting at the window barrier spins before it parks
  /// in std::atomic::wait. A window is tens of microseconds of work, so a
  /// healthy run crosses every barrier spinning; between run_until() calls
  /// the workers park.
  static constexpr std::chrono::microseconds kSpinBudget{100};

  /// Binds to `topo` and installs remote-delivery handlers on its boundary
  /// links (uninstalled again on destruction). `threads` = 0 means one
  /// thread per domain; the effective count is additionally clamped to
  /// min(threads, domains, hardware), and the caller's thread is one of
  /// them, so W effective threads start W - 1 workers. Construct before
  /// traffic flows and drive the run exclusively through run_until() from
  /// one thread.
  explicit DomainRunner(Topology& topo, unsigned threads = 0);
  ~DomainRunner();

  DomainRunner(const DomainRunner&) = delete;
  DomainRunner& operator=(const DomainRunner&) = delete;

  /// Advances every domain to `t_end` in lookahead windows. Callable
  /// repeatedly with increasing targets (scenario warm-up, then measurement
  /// phases). With one domain this degenerates to a plain run_until.
  ///
  /// Error contract: an exception thrown by a domain's event stream is
  /// captured on the thread that ran it and rethrown here, after the
  /// window's barrier, as std::runtime_error naming the failing domain
  /// index, the window, and the original what() — never a bare worker error
  /// with no context (and never std::terminate, which is what a throw
  /// escaping a worker thread would mean). When several domains fail in one
  /// window every failure is listed. The workers stay parked, ready for the
  /// destructor.
  ///
  /// Stall watchdog: conservative windows provably advance by more than the
  /// lookahead each round, so one run_until(t_end) call can take at most
  /// (t_end - start) / lookahead + 2 windows. A run exceeding that bound
  /// (with generous slack) has stopped making progress — a lookahead or
  /// barrier bug — and throws a diagnostic listing every domain's clock and
  /// earliest pending event instead of spinning forever.
  void run_until(SimTime t_end);

  SimTime lookahead() const { return lookahead_; }
  Stats stats() const;

  /// Overrides the stall watchdog's window budget for one run_until call
  /// (0 restores the computed bound). Tests use a tiny budget to exercise
  /// the diagnostic without building a genuinely wedged topology.
  void set_max_windows_for_test(std::uint64_t max_windows) {
    max_windows_override_ = max_windows;
  }

 private:
  struct Handoff {
    Packet pkt;
    SimTime deliver_at;
  };
  // One boundary link's mailbox, written only by the owning domain's
  // thread during a window and drained only by the caller at the barrier
  // (the epoch barrier orders the two), so no locks are needed. Padded:
  // threads pushing into neighbouring mailboxes must not share a line.
  struct alignas(kCacheLineSize) Mailbox {
    std::vector<Handoff> box;
  };

  /// Runs thread `w`'s share (domains d % W == w) to `end`, capturing each
  /// domain's exception in errors_.
  void run_share(unsigned w, SimTime end);
  void worker_loop(unsigned w);
  /// Wakes the workers for the next window, or for exit once stop_ is set.
  void release_workers();
  void stop_workers();

  Topology& topo_;
  unsigned requested_threads_;
  unsigned threads_;  // W: the caller plus workers_.size()
  SimTime lookahead_;
  std::vector<Mailbox> mail_;
  // Per-domain error capture, with the mailboxes' single-writer
  // discipline: written by the thread running the domain, read by the
  // caller after the barrier.
  std::vector<std::string> errors_;
  std::uint64_t windows_ = 0;
  std::uint64_t handoffs_ = 0;
  std::uint64_t max_windows_override_ = 0;

  // Window barrier. The caller writes window_end_ (or stop_), then bumps
  // epoch_ (release); a worker that sees the new epoch (acquire) reads
  // them, runs its share and decrements running_ (acq_rel), and the caller
  // waits for running_ to reach 0 (acquire) before the handoffs.
  SimTime window_end_ = 0;
  bool stop_ = false;
  alignas(kCacheLineSize) std::atomic<std::uint32_t> epoch_{0};
  alignas(kCacheLineSize) std::atomic<std::uint32_t> running_{0};
  std::vector<std::thread> workers_;  // last: started once the state above exists
};

}  // namespace pels
