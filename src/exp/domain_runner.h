// Conservative intra-scenario parallel DES: run one scenario on all cores.
//
// SweepRunner parallelizes *across* independent scenarios; DomainRunner
// parallelizes *within* one. The topology is partitioned into domains —
// node sets whose events execute on their own Simulation/Scheduler — and
// the only coupling between domains is packets crossing boundary links,
// which by construction take at least the link's propagation delay to
// arrive. That minimum delay is the classic conservative lookahead: every
// domain may run `lookahead` ahead of the others without ever receiving a
// message from its past. A boundary link hands each packet to one channel
// (Topology::channels()): its destination node's domain, or, for a link
// into a transit router such as a fat tree's hostless core, the domain
// that drives the router's next hop — one handoff per packet, straight to
// the pod it enters.
//
// Execution is windowed (barrier flavour of the null-message idea):
//   1. pick the next window end = min(t_end, earliest pending event across
//      all domains + lookahead) — idle stretches are skipped in one hop.
//      The first window of a run_until() call peeks every domain's
//      scheduler; later windows take the minimum over the per-domain slots
//      that step 2 publishes, so the caller never reads a remote scheduler;
//   2. run every domain's window on the domain's own thread. With W
//      effective threads the caller's thread runs domains d % W == 0 and
//      each of the runner's W - 1 persistent workers runs the fixed share
//      d % W == w. (Persistent, unlike SweepRunner's per-batch helpers: a
//      window is tens of microseconds of work, about what starting and
//      joining the threads would cost each time.) A domain's window is:
//        a. hand off the packets its inbound channels carried in the
//           previous window (Topology::hand_off), channel order, FIFO
//           within a channel, scheduling one `[topology, channel]` arrival
//           event per packet at its precomputed deliver_at, which the
//           lookahead guarantees is never in the domain's past;
//        b. run its scheduler to the window end; packets leaving its own
//           boundary links land in this window's mailbox buffer of their
//           channel (a local channel, back into the same domain, is handed
//           off on the spot);
//        c. publish into its own cache-line slot the earliest time it can
//           cause an event (its scheduler's next event and the head of each
//           outbound buffer it filled), its handoff count and the events it
//           executed.
//      Workers and caller meet at an epoch-counter barrier: the caller
//      publishes the window end and bumps the epoch, each worker counts
//      itself out when its share is done, and whoever waits spins (with a
//      pause, yielding every 64 pauses) for kSpinBudget, then parks in
//      std::atomic::wait. At W = 1 no thread is started: the run is a
//      plain serial loop on the caller;
//   3. barrier: nothing moves. Each channel has two mailbox buffers
//      alternated by window parity, so sources fill one while destinations
//      drain the other at their next window start (2a). After the last
//      window of a run_until() call the caller drains what is left, so the
//      mailboxes are empty between calls and pending arrivals — which wait
//      in the topology's per-channel inboxes — outlive the runner.
//
// Determinism contract (same as SweepRunner's, DESIGN.md "Parallel
// experiments"): a run at threads=N is byte-identical to threads=1. Window
// boundaries are computed from simulation state only, each domain is
// single-threaded within a window, and each destination receives its
// handoffs before any event of the next window, in channel order —
// so scheduler tie-break sequence numbers, RNG draws, and every metric are
// independent of thread count and thread placement.
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
#include "util/cache_line.h"
#include "util/time.h"

namespace pels {

class DomainRunner {
 public:
  struct Stats {
    unsigned requested_threads = 0;
    unsigned effective_threads = 0;
    SimTime lookahead = kTimeNever;
    std::uint64_t windows = 0;   // barrier-separated execution windows
    std::uint64_t handoffs = 0;  // packets exchanged across domains
    /// Events the domains executed under this runner, and the sum over
    /// windows of the busiest thread's share of them for the d % W
    /// assignment in use. Both depend only on simulation state and W.
    std::uint64_t events = 0;
    std::uint64_t busiest_events = 0;

    /// The speedup W threads could reach if barriers cost nothing:
    /// events / busiest_events (1 before any event ran).
    double work_bound() const {
      return busiest_events == 0
                 ? 1.0
                 : static_cast<double>(events) / static_cast<double>(busiest_events);
    }
  };

  /// How long a thread waiting at the window barrier spins before it parks
  /// in std::atomic::wait. A window is tens of microseconds of work, so a
  /// healthy run crosses every barrier spinning; between run_until() calls
  /// the workers park.
  static constexpr std::chrono::microseconds kSpinBudget{100};

  /// Binds to `topo` and installs remote-delivery handlers on its boundary
  /// links (uninstalled again on destruction). Throws std::logic_error
  /// while the topology's channels are stale (Topology::channels_stale()). `threads` = 0 means one
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
  /// destructor, and stats() stays readable. The failed window's handoffs
  /// stay in the mailboxes and its domains stopped at different times, so
  /// every later run_until() call throws std::logic_error naming the
  /// earlier failure instead of running on that state.
  ///
  /// Stall watchdog: conservative windows provably advance by more than the
  /// lookahead each round, so one run_until(t_end) call can take at most
  /// (t_end - start) / lookahead + 2 windows. A run exceeding that bound
  /// (with generous slack) has stopped making progress — a lookahead or
  /// barrier bug — and throws a diagnostic listing every domain's clock and
  /// earliest pending event instead of spinning forever. The watchdog trips
  /// between windows, after handing off what the mailboxes hold, so the
  /// runner stays usable.
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
  // One buffer of a channel's mailbox, on its own line: the source
  // domain's thread appends to one buffer while the destination domain's
  // thread drains the other.
  struct alignas(kCacheLineSize) MailBuffer {
    std::vector<Handoff> items;
  };
  // A channel's two buffers, alternated by window parity: window k
  // fills buffer k & 1, and the destination hands that buffer off at the
  // start of window k + 1 (or the caller does, after a run's last window).
  // The epoch barrier orders each fill before its drain and each drain
  // before the next fill of the same buffer, so no locks are needed.
  struct Mailbox {
    MailBuffer buffer[2];
  };
  // What one domain's thread publishes after its window; the caller reads it
  // after the barrier. Written only by that thread during a window (and by
  // the caller between windows), on its own line.
  struct alignas(kCacheLineSize) DomainSlot {
    SimTime next_time = kTimeNever;   // earliest event this domain can cause
    std::uint64_t window_events = 0;  // events executed in the last window
    std::uint64_t events = 0;         // events executed under this runner
    std::uint64_t handoffs = 0;       // packets handed off into this domain
    std::string error;                // the window's exception, if any
    // Channels into and out of this domain, in channel order (local
    // channels excluded: they need no mailbox).
    std::vector<std::size_t> inbound;
    std::vector<std::size_t> outbound;
  };

  /// Runs thread `w`'s share (domains d % W == w) through one window.
  void run_share(unsigned w, SimTime end, unsigned fill);
  /// One domain's window (steps 2a-2c), capturing its exception in its slot.
  void run_domain(std::size_t d, SimTime end, unsigned fill);
  /// Hands off buffer `b` of channel `c`'s mailbox; returns the packet count.
  std::size_t hand_off_buffer(std::size_t c, unsigned b);
  /// Hands off what the last window left in the mailboxes (caller only).
  void drain_mailboxes();
  void worker_loop(unsigned w);
  /// Wakes the workers for the next window, or for exit once stop_ is set.
  void release_workers();
  void stop_workers();

  Topology& topo_;
  unsigned requested_threads_;
  unsigned threads_;  // W: the caller plus workers_.size()
  SimTime lookahead_;
  std::vector<Mailbox> mail_;       // parallel to topo_.channels()
  std::vector<DomainSlot> slots_;   // one per domain
  std::uint64_t max_windows_override_ = 0;

  // Caller state. window_end_, fill_ and stop_ are published to the workers
  // by the epoch bump: the caller writes them, then bumps epoch_ (release);
  // a worker that sees the new epoch (acquire) reads them, runs its share
  // and decrements running_ (acq_rel), and the caller waits for running_ to
  // reach 0 (acquire) before it reads the slots.
  alignas(kCacheLineSize) SimTime window_end_ = 0;
  unsigned fill_ = 0;  // mailbox buffer the current window fills
  bool stop_ = false;
  std::uint64_t windows_ = 0;
  std::uint64_t busiest_events_ = 0;
  std::vector<std::uint64_t> share_events_;  // per thread, one window's events
  std::string failure_;  // what the failed run threw; empty while healthy
  alignas(kCacheLineSize) std::atomic<std::uint32_t> epoch_{0};
  alignas(kCacheLineSize) std::atomic<std::uint32_t> running_{0};
  std::vector<std::thread> workers_;  // last: started once the state above exists
};

}  // namespace pels
