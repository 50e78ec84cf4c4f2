#include "exp/domain_runner.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace pels {

// Barrier injection lands packets in Topology's per-link inboxes and
// schedules `[topology, link]` arrival events; pin the budget that design
// keeps (see net/link.cpp for the same contract from the pipeline's side).
static_assert(kSchedulerCallbackCapacity == 32,
              "scheduler callbacks capture [this, index]-sized state: 32 bytes");
static_assert(Scheduler::slot_bytes() <= 48,
              "a Scheduler::Slot must stay within 48 bytes");

namespace {

unsigned pool_threads(const Topology& topo, unsigned requested) {
  const auto domains = static_cast<unsigned>(topo.domain_count());
  // One worker per domain is the natural maximum; SweepRunner then applies
  // the hardware clamp on top.
  return requested == 0 ? domains : std::min(requested, domains);
}

}  // namespace

DomainRunner::DomainRunner(Topology& topo, unsigned threads)
    : topo_(topo),
      pool_(pool_threads(topo, threads)),
      lookahead_(topo.min_boundary_delay()) {
  const auto& boundary = topo_.boundary_links();
  mail_.resize(boundary.size());
  for (std::size_t i = 0; i < boundary.size(); ++i) {
    boundary[i].link->set_remote_delivery([this, i](Packet&& pkt, SimTime deliver_at) {
      mail_[i].push_back(Handoff{std::move(pkt), deliver_at});
    });
  }
}

DomainRunner::~DomainRunner() {
  // Detach the mailboxes before they are destroyed; the links may outlive
  // this runner and fall back to ordinary local delivery.
  for (const Topology::BoundaryLink& b : topo_.boundary_links()) {
    b.link->set_remote_delivery(nullptr);
  }
}

DomainRunner::Stats DomainRunner::stats() const {
  Stats s;
  s.requested_threads = pool_.requested_threads();
  s.effective_threads = pool_.thread_count();
  s.lookahead = lookahead_;
  s.windows = windows_;
  s.handoffs = handoffs_;
  return s;
}

void DomainRunner::run_until(SimTime t_end) {
  const std::size_t domains = topo_.domain_count();
  if (domains <= 1) {
    // Single domain: no boundaries, no barriers — plain sequential DES.
    try {
      topo_.sim().run_until(t_end);
    } catch (const std::exception& e) {
      throw std::runtime_error(std::string("DomainRunner: domain 0 failed: ") + e.what());
    }
    ++windows_;
    return;
  }
  SimTime now = topo_.domain_sim(0).now();
  errors_.assign(domains, std::string());

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

  while (now < t_end) {
    if (budget != 0 && windows_this_run >= budget) {
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
    SimTime earliest = kTimeNever;
    for (std::size_t d = 0; d < domains; ++d) {
      earliest = std::min(earliest,
                          topo_.domain_sim(static_cast<int>(d)).scheduler().peek_next_time());
    }
    SimTime end = t_end;
    if (earliest != kTimeNever && lookahead_ != kTimeNever) {
      const SimTime horizon =
          earliest > kTimeNever - lookahead_ ? kTimeNever : earliest + lookahead_;
      end = std::min(t_end, horizon);
    }
    pool_.run_indexed(domains, [this, end](std::size_t d) {
      // The pool's jobs-must-not-throw contract: capture here, rethrow with
      // domain context after the join. An escaped exception would
      // std::terminate the worker.
      try {
        topo_.domain_sim(static_cast<int>(d)).run_until(end);
      } catch (const std::exception& e) {
        errors_[d] = e.what();
      } catch (...) {
        errors_[d] = "non-standard exception";
      }
    });
    ++windows_;
    for (std::size_t d = 0; d < domains; ++d) {
      if (errors_[d].empty()) continue;
      std::ostringstream msg;
      msg << "DomainRunner: domain " << d << " failed in window " << windows_this_run
          << " (t=" << now << ".." << end << "ns): " << errors_[d];
      for (std::size_t o = d + 1; o < domains; ++o) {
        if (!errors_[o].empty()) {
          msg << "; domain " << o << ": " << errors_[o];
        }
      }
      throw std::runtime_error(msg.str());
    }

    // Barrier: hand cross-domain arrivals to their destination domains,
    // iterating boundary links in creation order and each mailbox FIFO. This
    // order — not completion or thread order — decides scheduler tie-break
    // sequence numbers in the destination, which is what makes the run
    // byte-identical at any thread count. The packets move on into the
    // topology's per-link inboxes, so the mailboxes are free for the next
    // window's workers.
    for (std::size_t i = 0; i < mail_.size(); ++i) {
      std::vector<Handoff>& box = mail_[i];
      for (Handoff& h : box) {
        assert(h.deliver_at >= end && "handoff arrived inside the lookahead window");
        topo_.hand_off(i, std::move(h.pkt), h.deliver_at);
      }
      handoffs_ += box.size();
      box.clear();
    }
    now = end;
  }
}

}  // namespace pels
