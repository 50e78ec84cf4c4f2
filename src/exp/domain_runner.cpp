#include "exp/domain_runner.h"

#include <algorithm>
#include <cassert>
#include <exception>
#include <sstream>
#include <stdexcept>

#include "exp/sweep.h"

namespace pels {

// Barrier injection lands packets in Topology's per-link inboxes and
// schedules `[topology, link]` arrival events; pin the budget that design
// keeps (see net/link.cpp for the same contract from the pipeline's side).
static_assert(kSchedulerCallbackCapacity == 32,
              "scheduler callbacks capture [this, index]-sized state: 32 bytes");
static_assert(Scheduler::slot_bytes() <= 48,
              "a Scheduler::Slot must stay within 48 bytes");

namespace {

using Clock = std::chrono::steady_clock;

unsigned requested_threads(const Topology& topo, unsigned requested) {
  const auto domains = static_cast<unsigned>(topo.domain_count());
  // One thread per domain is the natural maximum.
  return requested == 0 ? domains : std::min(requested, domains);
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Returns the first value of `a` that satisfies `done`: spins with a pause
/// for DomainRunner::kSpinBudget, then parks in atomic::wait until a notify
/// changes the value. Every 64 pauses the spinner also yields: when the
/// thread it waits for shares its CPU (a busy machine, a narrow affinity
/// mask), a pure spin would hold that CPU for the whole budget at every
/// barrier — `many_flows --smoke` pinned to one CPU of a 4-vCPU Xeon
/// container ran its 2-thread sharded fat tree 7x slower than serial that
/// way, and at about 0.8x of serial with the yield.
template <typename Done>
std::uint32_t spin_then_park(const std::atomic<std::uint32_t>& a, Done done) {
  const Clock::time_point deadline = Clock::now() + DomainRunner::kSpinBudget;
  for (unsigned spins = 1;; ++spins) {
    const std::uint32_t v = a.load(std::memory_order_acquire);
    if (done(v)) return v;
    cpu_relax();
    if (spins % 64 == 0) {
      if (Clock::now() >= deadline) break;
      std::this_thread::yield();
    }
  }
  for (;;) {
    const std::uint32_t v = a.load(std::memory_order_acquire);
    if (done(v)) return v;
    a.wait(v, std::memory_order_acquire);
  }
}

}  // namespace

DomainRunner::DomainRunner(Topology& topo, unsigned threads)
    : topo_(topo),
      requested_threads_(requested_threads(topo, threads)),
      // Oversubscription clamp, as SweepRunner's: the caller counts as one
      // of the W threads, so spinning threads never outnumber the hardware.
      threads_(std::max(1u, std::min(requested_threads_, SweepRunner::hardware_threads()))),
      lookahead_(topo.min_boundary_delay()),
      mail_(topo.channels().size()),
      slots_(topo.domain_count()),
      share_events_(threads_) {
  if (topo_.channels_stale()) {
    throw std::logic_error(
        "DomainRunner: call Topology::compute_routes() after the last link into or out of "
        "a transit router");
  }
  const auto& channels = topo_.channels();
  for (std::size_t c = 0; c < channels.size(); ++c) {
    if (channels[c].local()) continue;
    slots_[static_cast<std::size_t>(channels[c].to_domain)].inbound.push_back(c);
    slots_[static_cast<std::size_t>(channels[c].from_domain)].outbound.push_back(c);
    // A buffer holds what its link sends in one window, whose events span at
    // most the lookahead: reserve twice that many 1000-byte packets, so the
    // steady state does not grow it.
    const Link& link = *topo_.boundary_links()[channels[c].boundary].link;
    const auto per_window = static_cast<std::size_t>(
        2.0 * link.bandwidth_bps() * to_seconds(lookahead_) / 8000.0 + 2.0);
    for (MailBuffer& b : mail_[c].buffer) b.items.reserve(per_window);
  }
  workers_.reserve(threads_ - 1);
  try {
    for (unsigned w = 1; w < threads_; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  } catch (...) {
    stop_workers();
    throw;
  }
  const auto& boundary = topo_.boundary_links();
  for (std::size_t i = 0; i < boundary.size(); ++i) {
    if (boundary[i].transit == nullptr) {
      const std::size_t c = boundary[i].first_channel;
      boundary[i].link->set_remote_delivery([this, c](Packet&& pkt, SimTime deliver_at) {
        mail_[c].buffer[fill_].items.push_back(Handoff{std::move(pkt), deliver_at});
      });
      continue;
    }
    // Into a transit router: the router's table picks the channel at wire
    // exit, and a packet whose next hop runs in this link's own domain is
    // handed off on the spot — it never leaves the thread.
    boundary[i].link->set_remote_delivery([this, i](Packet&& pkt, SimTime deliver_at) {
      const std::size_t c = topo_.channel_for(i, pkt.dst);
      if (c == Topology::kNoChannel) {
        const Topology::BoundaryLink& b = topo_.boundary_links()[i];
        b.transit->count_unroutable_in(static_cast<std::size_t>(b.from_domain));
        return;
      }
      if (topo_.channels()[c].local()) {
        topo_.hand_off(c, std::move(pkt), deliver_at);
        return;
      }
      mail_[c].buffer[fill_].items.push_back(Handoff{std::move(pkt), deliver_at});
    });
  }
}

DomainRunner::~DomainRunner() {
  stop_workers();
  // Detach the mailboxes before they are destroyed; the links may outlive
  // this runner and fall back to ordinary local delivery.
  for (const Topology::BoundaryLink& b : topo_.boundary_links()) {
    b.link->set_remote_delivery(nullptr);
  }
}

DomainRunner::Stats DomainRunner::stats() const {
  Stats s;
  s.requested_threads = requested_threads_;
  s.effective_threads = threads_;
  s.lookahead = lookahead_;
  s.windows = windows_;
  for (const DomainSlot& slot : slots_) {
    s.handoffs += slot.handoffs;
    s.events += slot.events;
  }
  s.busiest_events = busiest_events_;
  return s;
}

void DomainRunner::release_workers() {
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
}

void DomainRunner::stop_workers() {
  if (workers_.empty()) return;
  stop_ = true;
  release_workers();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void DomainRunner::worker_loop(unsigned w) {
  std::uint32_t seen = 0;
  for (;;) {
    seen = spin_then_park(epoch_, [seen](std::uint32_t e) { return e != seen; });
    if (stop_) return;
    run_share(w, window_end_, fill_);
    if (running_.fetch_sub(1, std::memory_order_acq_rel) == 1) running_.notify_one();
  }
}

void DomainRunner::run_share(unsigned w, SimTime end, unsigned fill) {
  for (std::size_t d = w; d < slots_.size(); d += threads_) run_domain(d, end, fill);
}

std::size_t DomainRunner::hand_off_buffer(std::size_t c, unsigned b) {
  std::vector<Handoff>& items = mail_[c].buffer[b].items;
  [[maybe_unused]] const SimTime dst_now =
      topo_.domain_sim(topo_.channels()[c].to_domain).now();
  for (Handoff& h : items) {
    assert(h.deliver_at >= dst_now && "handoff arrived inside the lookahead window");
    topo_.hand_off(c, std::move(h.pkt), h.deliver_at);
  }
  const std::size_t n = items.size();
  items.clear();
  return n;
}

void DomainRunner::run_domain(std::size_t d, SimTime end, unsigned fill) {
  DomainSlot& slot = slots_[d];
  Scheduler& sched = topo_.domain_sim(static_cast<int>(d)).scheduler();
  // A throw must not escape a worker thread (std::terminate): capture here,
  // rethrow with domain context after the barrier.
  try {
    // The previous window's arrivals, in channel order: the same
    // schedule order at any thread count, so the same tie-break sequence
    // numbers. Every one arrives at or after this window's start.
    for (const std::size_t i : slot.inbound) slot.handoffs += hand_off_buffer(i, fill ^ 1u);
    const std::uint64_t before = sched.executed();
    sched.run_until(end);
    slot.window_events = sched.executed() - before;
    slot.events += slot.window_events;
    // Window sizing input: besides its own next event, this domain causes
    // an arrival at the head of every buffer it filled (deliver_at never
    // decreases within a link).
    SimTime next = sched.peek_next_time();
    for (const std::size_t i : slot.outbound) {
      const std::vector<Handoff>& items = mail_[i].buffer[fill].items;
      if (!items.empty()) next = std::min(next, items.front().deliver_at);
    }
    slot.next_time = next;
  } catch (const std::exception& e) {
    slot.error = e.what();
  } catch (...) {
    slot.error = "non-standard exception";
  }
}

void DomainRunner::drain_mailboxes() {
  // The buffer the last window filled; the other one was handed off at that
  // window's start. Channel order, as the destinations drain.
  const unsigned last = fill_;
  for (DomainSlot& slot : slots_) {
    for (const std::size_t c : slot.inbound) slot.handoffs += hand_off_buffer(c, last);
  }
}

void DomainRunner::run_until(SimTime t_end) {
  if (!failure_.empty()) {
    throw std::logic_error(
        "DomainRunner: run_until after a failed run; the failed window's handoffs are "
        "stranded and its domains stopped apart (earlier failure: " +
        failure_ + ")");
  }
  const std::size_t domains = slots_.size();
  if (domains <= 1) {
    // Single domain: no boundaries, no barriers — plain sequential DES.
    Scheduler& sched = topo_.sim().scheduler();
    const std::uint64_t before = sched.executed();
    try {
      sched.run_until(t_end);
    } catch (const std::exception& e) {
      failure_ = std::string("DomainRunner: domain 0 failed: ") + e.what();
      throw std::runtime_error(failure_);
    }
    const std::uint64_t events = sched.executed() - before;
    slots_[0].events += events;
    busiest_events_ += events;
    ++windows_;
    return;
  }
  SimTime now = topo_.domain_sim(0).now();

  // Stall watchdog budget. Each completed window ends past the previous
  // earliest pending event, which itself is past the previous window's end —
  // so every window advances by MORE than the lookahead, bounding a healthy
  // run at (t_end - now) / lookahead + 2 windows. 4x slack plus a constant
  // keeps the budget unreachable for any correct run while still finite for
  // a wedged one.
  std::uint64_t budget = max_windows_override_;
  if (budget == 0 && lookahead_ > 0 && lookahead_ != kTimeNever && now < t_end) {
    const std::uint64_t bound =
        static_cast<std::uint64_t>((t_end - now) / lookahead_) + 2;
    budget = bound * 4 + 16;
  }
  std::uint64_t windows_this_run = 0;

  // The first window's sizing peeks every scheduler: the mailboxes are
  // empty between run_until() calls, so the schedulers hold every pending
  // event. Later windows read the slots instead.
  SimTime earliest = kTimeNever;
  for (std::size_t d = 0; d < domains; ++d) {
    earliest = std::min(earliest,
                        topo_.domain_sim(static_cast<int>(d)).scheduler().peek_next_time());
  }

  while (now < t_end) {
    if (budget != 0 && windows_this_run >= budget) {
      drain_mailboxes();
      std::ostringstream msg;
      msg << "DomainRunner: stall watchdog tripped after " << windows_this_run
          << " windows (budget " << budget << ", lookahead " << lookahead_
          << "ns, target " << t_end << "ns); domain state:";
      for (std::size_t d = 0; d < domains; ++d) {
        Scheduler& sched = topo_.domain_sim(static_cast<int>(d)).scheduler();
        msg << " [domain " << d << ": now=" << sched.now()
            << " next=" << sched.peek_next_time() << " pending=" << sched.pending()
            << "]";
      }
      throw std::runtime_error(msg.str());
    }
    ++windows_this_run;
    // Window sizing: every event executed this window has time >= the
    // earliest pending event across all domains, so every handoff it can
    // produce arrives >= earliest + lookahead. Capping the window there
    // keeps arrivals out of every domain's past — and when the earliest
    // event is far away (or absent), the whole idle stretch is skipped in
    // a single window instead of being barrier-stepped through.
    SimTime end = t_end;
    if (earliest != kTimeNever && lookahead_ != kTimeNever) {
      const SimTime horizon =
          earliest > kTimeNever - lookahead_ ? kTimeNever : earliest + lookahead_;
      end = std::min(t_end, horizon);
    }
    // Window: the workers run their shares while the caller runs its own,
    // then the caller waits for every worker to count itself out.
    fill_ = static_cast<unsigned>(windows_ & 1);
    if (!workers_.empty()) {
      window_end_ = end;
      running_.store(static_cast<std::uint32_t>(workers_.size()), std::memory_order_relaxed);
      release_workers();
    }
    run_share(0, end, fill_);
    if (!workers_.empty()) {
      spin_then_park(running_, [](std::uint32_t n) { return n == 0; });
    }
    ++windows_;
    for (std::size_t d = 0; d < domains; ++d) {
      if (slots_[d].error.empty()) continue;
      std::ostringstream msg;
      msg << "DomainRunner: domain " << d << " failed in window " << windows_this_run
          << " (t=" << now << ".." << end << "ns): " << slots_[d].error;
      for (std::size_t o = d + 1; o < domains; ++o) {
        if (!slots_[o].error.empty()) {
          msg << "; domain " << o << ": " << slots_[o].error;
        }
      }
      failure_ = msg.str();
      throw std::runtime_error(failure_);
    }

    // Barrier: the next window's sizing and the work bound, from the slots.
    earliest = kTimeNever;
    std::fill(share_events_.begin(), share_events_.end(), 0);
    for (std::size_t d = 0; d < domains; ++d) {
      earliest = std::min(earliest, slots_[d].next_time);
      share_events_[d % threads_] += slots_[d].window_events;
    }
    busiest_events_ += *std::max_element(share_events_.begin(), share_events_.end());
    now = end;
  }
  drain_mailboxes();
}

}  // namespace pels
