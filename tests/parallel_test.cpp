// DomainRunner tests: conservative intra-scenario parallel DES.
//
// The contract under test (DESIGN.md "Parallel experiments"): partitioning
// a topology into link-delay-separated domains changes *nothing* observable
// — packet arrival timestamps equal the monolithic single-scheduler run —
// and the partitioned run is byte-identical at any thread count, because
// window boundaries derive from simulation state only and barrier
// injections happen in fixed boundary-link order.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/domain_runner.h"
#include "net/topology.h"
#include "queue/drop_tail.h"
#include "sim/timer.h"

namespace pels {
namespace {

const QueueFactory kDropTail = [](double) { return std::make_unique<DropTailQueue>(64); };

/// Logs every arrival as (local sim time, uid); the serialized log is the
/// byte-identity witness.
struct RecordingAgent : public Agent {
  explicit RecordingAgent(Simulation& sim) : sim_(sim) {}
  void on_packet(const Packet& pkt) override {
    log_.emplace_back(sim_.now(), pkt.uid);
    if (on_arrival_) on_arrival_();
  }
  void set_on_arrival(std::function<void()> f) { on_arrival_ = std::move(f); }

  std::string serialize() const {
    std::ostringstream out;
    for (const auto& [t, uid] : log_) out << t << ':' << uid << ';';
    return out.str();
  }
  std::size_t arrivals() const { return log_.size(); }

 private:
  Simulation& sim_;
  std::vector<std::pair<SimTime, std::uint64_t>> log_;
  std::function<void()> on_arrival_;
};

/// Paced packet injector: `rate_pps` packets/s of `bytes`-sized packets from
/// `src` to `dst` under `flow`, driven by the scheduler of `src`'s domain.
class PacedFlow {
 public:
  PacedFlow(Scheduler& sched, Host& src, NodeId dst, FlowId flow, double rate_pps,
            std::int32_t bytes)
      : sched_(sched),
        src_(src),
        dst_(dst),
        flow_(flow),
        bytes_(bytes),
        timer_(sched, from_seconds(1.0 / rate_pps), [this] {
          Packet pkt;
          pkt.uid = (static_cast<std::uint64_t>(flow_) << 32) | ++seq_;
          pkt.flow = flow_;
          pkt.seq = seq_;
          pkt.size_bytes = bytes_;
          pkt.src = src_.id();
          pkt.dst = dst_;
          pkt.created_at = sched_.now();
          src_.send(std::move(pkt));
        }) {
    timer_.start();
  }

  void stop() { timer_.stop(); }

 private:
  Scheduler& sched_;
  Host& src_;
  NodeId dst_;
  FlowId flow_;
  std::int32_t bytes_;
  std::uint32_t seq_ = 0;
  PeriodicTimer timer_;
};

/// A 4-node chain host_a - r1 ===boundary=== r2 - host_b with bidirectional
/// traffic (two paced flows), optionally split into two domains at the
/// r1<->r2 links. Owns everything needed to run and serialize the result.
struct ChainScenario {
  static constexpr SimTime kBoundaryDelay = 25 * kMillisecond;

  explicit ChainScenario(bool partitioned, bool corrupt_boundary = false) {
    sims.push_back(std::make_unique<Simulation>(7));
    topo = std::make_unique<Topology>(*sims[0]);
    int far = 0;
    if (partitioned) {
      sims.push_back(std::make_unique<Simulation>(7));
      far = topo->add_domain(*sims[1]);
    }
    Host& a = topo->add_host("a");
    Router& r1 = topo->add_router("r1");
    Router& r2 = topo->add_router("r2", far);
    Host& b = topo->add_host("b", far);
    topo->connect(a, r1, 10e6, kMillisecond, kDropTail);
    auto [ab, ba] = topo->connect(r1, r2, 8e6, kBoundaryDelay, kDropTail);
    boundary_ab = ab;
    topo->connect(r2, b, 10e6, kMillisecond, kDropTail);
    if (corrupt_boundary) {
      ab->set_corruption(0.05, sims[0]->make_rng(99));
      ba->set_corruption(0.05, sims.back()->make_rng(99));
    }
    topo->compute_routes();
    topo->reserve_runtime(2);
    sink_b = std::make_unique<RecordingAgent>(*sims[far == 0 ? 0 : 1]);
    sink_a = std::make_unique<RecordingAgent>(*sims[0]);
    b.register_agent(1, sink_b.get());
    a.register_agent(2, sink_a.get());
    forward = std::make_unique<PacedFlow>(sims[0]->scheduler(), a, b.id(), 1, 900.0, 1000);
    reverse = std::make_unique<PacedFlow>(sims[far == 0 ? 0 : 1]->scheduler(), b, a.id(), 2,
                                          400.0, 400);
  }

  std::string trace() const { return sink_b->serialize() + "|" + sink_a->serialize(); }

  std::vector<std::unique_ptr<Simulation>> sims;
  std::unique_ptr<Topology> topo;
  Link* boundary_ab = nullptr;
  std::unique_ptr<RecordingAgent> sink_a;
  std::unique_ptr<RecordingAgent> sink_b;
  std::unique_ptr<PacedFlow> forward;
  std::unique_ptr<PacedFlow> reverse;
};

// --------------------------------------------------- timing equivalence

TEST(DomainRunnerTest, PartitionedRunMatchesMonolithicTimings) {
  ChainScenario mono(/*partitioned=*/false);
  mono.sims[0]->run_until(2 * kSecond);

  ChainScenario part(/*partitioned=*/true);
  DomainRunner runner(*part.topo, 2);
  runner.run_until(2 * kSecond);

  EXPECT_GT(part.sink_b->arrivals(), 1000u);
  EXPECT_GT(part.sink_a->arrivals(), 400u);
  // Every arrival timestamp identical: the handoff re-schedules at exactly
  // tx_end + prop_delay, which is when local propagation would deliver.
  EXPECT_EQ(part.trace(), mono.trace());
}

TEST(DomainRunnerTest, ByteIdenticalAtAnyThreadCount) {
  std::string serial;
  for (unsigned threads : {1u, 2u, 8u}) {
    ChainScenario s(/*partitioned=*/true);
    DomainRunner runner(*s.topo, threads);
    runner.run_until(3 * kSecond);
    const std::string trace = s.trace();
    if (threads == 1) {
      serial = trace;
      ASSERT_FALSE(serial.empty());
    } else {
      EXPECT_EQ(trace, serial) << "threads=" << threads << " diverged from threads=1";
    }
  }
}

TEST(DomainRunnerTest, CorruptedBoundaryStaysDeterministic) {
  // Corruption is evaluated at wire exit in the source domain; the RNG
  // chain must replay identically regardless of thread count.
  std::string serial;
  std::uint64_t corrupted = 0;
  for (unsigned threads : {1u, 2u}) {
    ChainScenario s(/*partitioned=*/true, /*corrupt_boundary=*/true);
    DomainRunner runner(*s.topo, threads);
    runner.run_until(3 * kSecond);
    if (threads == 1) {
      serial = s.trace();
      corrupted = s.boundary_ab->packets_corrupted();
      EXPECT_GT(corrupted, 0u);  // 5% of ~2700 packets: losing none is broken
    } else {
      EXPECT_EQ(s.trace(), serial);
      EXPECT_EQ(s.boundary_ab->packets_corrupted(), corrupted);
    }
  }
}

// --------------------------------------------------------- window engine

TEST(DomainRunnerTest, LookaheadIsMinBoundaryDelayAndStatsFill) {
  ChainScenario s(/*partitioned=*/true);
  DomainRunner runner(*s.topo, 2);
  runner.run_until(kSecond);
  const DomainRunner::Stats st = runner.stats();
  EXPECT_EQ(st.lookahead, ChainScenario::kBoundaryDelay);
  EXPECT_EQ(s.topo->min_boundary_delay(), ChainScenario::kBoundaryDelay);
  EXPECT_EQ(st.requested_threads, 2u);
  EXPECT_GE(st.effective_threads, 1u);
  EXPECT_LE(st.effective_threads, 2u);
  EXPECT_GT(st.windows, 0u);
  EXPECT_GT(st.handoffs, 0u);
  // Both sims reached the target in lockstep.
  EXPECT_EQ(s.sims[0]->now(), kSecond);
  EXPECT_EQ(s.sims[1]->now(), kSecond);
}

TEST(DomainRunnerTest, IdleStretchesAreSkippedNotBarrierStepped) {
  ChainScenario s(/*partitioned=*/true);
  // Stop both flows early; after the pipes drain the schedulers go empty.
  s.sims[0]->at(200 * kMillisecond, [&s] { s.forward->stop(); });
  s.sims[1]->at(200 * kMillisecond, [&s] { s.reverse->stop(); });
  DomainRunner runner(*s.topo, 2);
  runner.run_until(60 * kSecond);
  // Naive fixed-grid windows would need 60 s / 25 ms = 2400 barriers; the
  // adaptive window jumps the idle 59.8 s in one hop.
  EXPECT_LT(runner.stats().windows, 200u);
  EXPECT_EQ(s.sims[0]->now(), 60 * kSecond);
  EXPECT_EQ(s.sims[1]->now(), 60 * kSecond);
}

TEST(DomainRunnerTest, RepeatedRunUntilContinuesCleanly) {
  ChainScenario whole(/*partitioned=*/true);
  DomainRunner wr(*whole.topo, 2);
  wr.run_until(2 * kSecond);

  ChainScenario phased(/*partitioned=*/true);
  DomainRunner pr(*phased.topo, 2);
  pr.run_until(500 * kMillisecond);  // warm-up phase
  pr.run_until(2 * kSecond);         // measurement phase
  EXPECT_EQ(phased.trace(), whole.trace());
}

TEST(DomainRunnerTest, MailboxesEmptyAtEveryRunEndAcrossRebuiltRunners) {
  // Many run_until targets at odd times, each ending with boundary packets
  // in flight, and a fresh runner every third target: every handoff must
  // reach its destination exactly when it would in one uninterrupted run.
  // A handoff left in a mailbox at a run's end would die with its runner,
  // and one handed off from the buffer still being filled would arrive a
  // window late.
  ChainScenario whole(/*partitioned=*/true);
  DomainRunner(*whole.topo, 1).run_until(1500 * kMillisecond);
  for (unsigned threads : {1u, 2u, 4u}) {
    ChainScenario cut(/*partitioned=*/true);
    auto runner = std::make_unique<DomainRunner>(*cut.topo, threads);
    for (int k = 1; k <= 40; ++k) {
      if (k % 3 == 0) {
        runner.reset();
        runner = std::make_unique<DomainRunner>(*cut.topo, threads);
      }
      runner->run_until(k * 37 * kMillisecond + (k * k % 11) * kMillisecond);
      // Past the boundary wire but not yet at the sink: in the mailbox, the
      // destination's inbox or the last local hop.
      ASSERT_GT(cut.boundary_ab->packets_delivered(), cut.sink_b->arrivals()) << "k=" << k;
    }
    runner->run_until(1500 * kMillisecond);
    EXPECT_EQ(cut.trace(), whole.trace()) << "threads=" << threads;
  }
}

TEST(DomainRunnerTest, SingleDomainTopologyFallsBackToSequentialRun) {
  ChainScenario s(/*partitioned=*/false);
  DomainRunner runner(*s.topo, 4);
  runner.run_until(kSecond);
  EXPECT_EQ(s.sims[0]->now(), kSecond);
  EXPECT_EQ(runner.stats().windows, 1u);
  EXPECT_EQ(runner.stats().handoffs, 0u);
  EXPECT_GT(s.sink_b->arrivals(), 0u);
}

TEST(DomainRunnerTest, WorkBoundCountsEveryDomainsEventsAndTheBusiestThread) {
  // Targets 1 ms apart, under the 25 ms lookahead, make every run_until one
  // window, so the test can take each window's per-domain event counts from
  // the schedulers and rebuild the busiest thread's share for d % W.
  ChainScenario s(/*partitioned=*/true);
  DomainRunner runner(*s.topo, 2);
  const unsigned w = runner.stats().effective_threads;
  std::uint64_t events = 0;
  std::uint64_t busiest = 0;
  for (SimTime t = kMillisecond; t <= 300 * kMillisecond; t += kMillisecond) {
    const std::uint64_t before0 = s.sims[0]->scheduler().executed();
    const std::uint64_t before1 = s.sims[1]->scheduler().executed();
    const std::uint64_t windows = runner.stats().windows;
    runner.run_until(t);
    ASSERT_EQ(runner.stats().windows, windows + 1) << "t=" << t;
    const std::uint64_t e0 = s.sims[0]->scheduler().executed() - before0;
    const std::uint64_t e1 = s.sims[1]->scheduler().executed() - before1;
    events += e0 + e1;
    busiest += w == 1 ? e0 + e1 : std::max(e0, e1);
  }
  const DomainRunner::Stats st = runner.stats();
  EXPECT_GT(events, 1000u);
  EXPECT_EQ(st.events, events);
  EXPECT_EQ(st.busiest_events, busiest);
  EXPECT_DOUBLE_EQ(st.work_bound(),
                   static_cast<double>(events) / static_cast<double>(busiest));
  if (w == 2) {
    EXPECT_GT(st.work_bound(), 1.0);
    EXPECT_LT(st.work_bound(), 2.0);
  }
}

// ------------------------------------------------------ worker threads

TEST(DomainRunnerTest, OneThreadRunsOnTheCallersThread) {
  // At one thread the runner starts no worker: every event of every domain,
  // arrivals included, executes on the thread that called run_until.
  ChainScenario s(/*partitioned=*/true);
  std::vector<std::thread::id> ids;
  const auto record = [&ids] { ids.push_back(std::this_thread::get_id()); };
  std::vector<std::unique_ptr<PeriodicTimer>> probes;
  for (auto& sim : s.sims) {
    probes.push_back(std::make_unique<PeriodicTimer>(sim->scheduler(), 10 * kMillisecond, record));
    probes.back()->start();
  }
  s.sink_a->set_on_arrival(record);
  s.sink_b->set_on_arrival(record);
  DomainRunner runner(*s.topo, 1);
  EXPECT_EQ(runner.stats().effective_threads, 1u);
  runner.run_until(kSecond);
  ASSERT_GT(ids.size(), 1000u);
  for (const std::thread::id id : ids) ASSERT_EQ(id, std::this_thread::get_id());
}

TEST(DomainRunnerTest, ParkedWorkersWakeForTheNextRun) {
  // Between run_until calls the workers spin for kSpinBudget, then park;
  // the next call must wake them and continue as if never interrupted.
  ChainScenario whole(/*partitioned=*/true);
  DomainRunner(*whole.topo, 2).run_until(2 * kSecond);

  ChainScenario parked(/*partitioned=*/true);
  DomainRunner runner(*parked.topo, 2);
  runner.run_until(700 * kMillisecond);
  std::this_thread::sleep_for(50 * DomainRunner::kSpinBudget);
  runner.run_until(2 * kSecond);
  std::this_thread::sleep_for(50 * DomainRunner::kSpinBudget);
  runner.run_until(2 * kSecond);  // no window left: returns at once
  EXPECT_EQ(parked.trace(), whole.trace());
  EXPECT_EQ(parked.sims[0]->now(), 2 * kSecond);
  EXPECT_EQ(parked.sims[1]->now(), 2 * kSecond);
}

TEST(DomainRunnerTest, ThrowingDomainJoinsCleanly) {
  // Domain 1 runs on a worker whenever the hardware allows two threads. Its
  // exception is rethrown on the caller naming the domain; the workers then
  // park, and the destructor wakes and joins them.
  ChainScenario s(/*partitioned=*/true);
  s.sims[1]->at(300 * kMillisecond, [] { throw std::runtime_error("worker-side fault"); });
  {
    DomainRunner runner(*s.topo, 2);
    try {
      runner.run_until(kSecond);
      FAIL() << "expected the captured exception";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("DomainRunner: domain 1 failed in window"), std::string::npos)
          << what;
      EXPECT_NE(what.find("worker-side fault"), std::string::npos) << what;
    }
    std::this_thread::sleep_for(50 * DomainRunner::kSpinBudget);
  }
  // The run stopped at the failing window.
  EXPECT_LT(s.sims[0]->now(), kSecond);
  EXPECT_LT(s.sims[1]->now(), kSecond);
}

// ------------------------------------------------------- arrival inboxes

/// Two boundary links a1 -> b and a2 -> b from domain 0 into domain 1. At a
/// rate high enough that serialization rounds to 0 ns, every packet of a
/// burst on either link is handed off with the same deliver_at, so the only
/// thing ordering their arrivals is the scheduler's tie-break: the barrier's
/// schedule order, which the inbox events must preserve.
struct TwoLinkFanIn {
  static constexpr SimTime kDelay = 5 * kMillisecond;

  TwoLinkFanIn() : near(3), far(3), topo(near) {
    const int d = topo.add_domain(far);
    Host& a1 = topo.add_host("a1");
    Host& a2 = topo.add_host("a2");
    Host& b = topo.add_host("b", d);
    topo.add_link(a1, b, 1e13, kDelay, kDropTail);  // boundary link 0
    topo.add_link(a2, b, 1e13, kDelay, kDropTail);  // boundary link 1
    topo.compute_routes();
    sink = std::make_unique<RecordingAgent>(far);
    b.register_agent(1, sink.get());
    b.register_agent(2, sink.get());
    // The second link's burst is sent first: send order must not matter,
    // link creation order must.
    near.at(kMillisecond, [this, &a1, &a2, &b] {
      burst(a2, b.id(), 2);
      burst(a1, b.id(), 1);
    });
  }

  static void burst(Host& src, NodeId dst, FlowId flow) {
    for (std::uint32_t seq = 1; seq <= 3; ++seq) {
      Packet pkt;
      pkt.uid = flow * 100 + seq;
      pkt.flow = flow;
      pkt.seq = seq;
      pkt.size_bytes = 100;
      pkt.src = src.id();
      pkt.dst = dst;
      src.send(std::move(pkt));
    }
  }

  Simulation near;
  Simulation far;
  Topology topo;
  std::unique_ptr<RecordingAgent> sink;
};

TEST(DomainRunnerTest, InboxesDeliverInLinkOrderThenFifoAtAnyThreadCount) {
  const std::string expected = [] {
    const std::string t = std::to_string(kMillisecond + TwoLinkFanIn::kDelay);
    return t + ":101;" + t + ":102;" + t + ":103;" + t + ":201;" + t + ":202;" + t + ":203;";
  }();
  for (unsigned threads : {1u, 2u, 8u}) {
    TwoLinkFanIn s;
    DomainRunner runner(s.topo, threads);
    runner.run_until(20 * kMillisecond);
    EXPECT_EQ(runner.stats().handoffs, 6u);
    EXPECT_EQ(s.sink->serialize(), expected) << "threads=" << threads;
  }
}

TEST(DomainRunnerTest, PendingArrivalsOutliveTheRunner) {
  // Handoffs still in their inbox when the runner goes away arrive when the
  // destination domain is stepped on its own, exactly as they would have
  // under the runner: every arrival before t1 + lookahead was handed off at
  // or before the barrier at t1.
  const SimTime t1 = kSecond;
  const SimTime t2 = t1 + ChainScenario::kBoundaryDelay - 1;
  ChainScenario whole(/*partitioned=*/true);
  DomainRunner(*whole.topo, 2).run_until(t2);

  ChainScenario cut(/*partitioned=*/true);
  std::size_t arrived_at_cut = 0;
  {
    DomainRunner runner(*cut.topo, 2);
    runner.run_until(t1);
    arrived_at_cut = cut.sink_b->arrivals();
  }
  cut.sims[1]->run_until(t2);
  EXPECT_GT(cut.sink_b->arrivals(), arrived_at_cut) << "no arrival was pending at the cut";
  EXPECT_EQ(cut.sink_b->serialize(), whole.sink_b->serialize());
  // The source domain keeps running too; its boundary links fell back to
  // local delivery when the runner detached them.
  cut.sims[0]->run_until(t2);
  EXPECT_EQ(cut.sims[0]->now(), t2);
  EXPECT_EQ(cut.sims[1]->now(), t2);
}

// ------------------------------------------------------------ validation

TEST(DomainRunnerTest, ZeroDelayBoundaryLinkIsRejected) {
  Simulation sim_a(1);
  Simulation sim_b(1);
  Topology topo(sim_a);
  const int far = topo.add_domain(sim_b);
  Host& a = topo.add_host("a");
  Host& b = topo.add_host("b", far);
  EXPECT_THROW(topo.add_link(a, b, 1e6, 0, kDropTail), std::invalid_argument);
  // Same-domain zero-delay links stay legal.
  Host& a2 = topo.add_host("a2");
  EXPECT_NO_THROW(topo.add_link(a, a2, 1e6, 0, kDropTail));
}

TEST(DomainRunnerTest, UnknownDomainIsRejected) {
  Simulation sim(1);
  Topology topo(sim);
  EXPECT_THROW(topo.add_host("x", 1), std::invalid_argument);
  EXPECT_THROW(topo.add_router("y", -1), std::invalid_argument);
  // A transit router is made by its own call, never by a domain id.
  EXPECT_THROW(topo.add_router("z", Topology::kTransitDomain), std::invalid_argument);
  EXPECT_EQ(topo.node_count(), 0u);
}

// ------------------------------------------------------- transit routers

/// A hostless core: hosts a0 and a1 in domain 0, b in domain 1 and c in
/// domain 2, each joined to the core by a 5 ms link pair. Partitioned, the
/// core is a transit router and every host's uplink a boundary link;
/// monolithic, everything (the core an ordinary router) lives in domain 0.
struct TransitStar {
  static constexpr SimTime kDelay = 5 * kMillisecond;

  explicit TransitStar(bool partitioned) : d0(5), d1(5), d2(5), topo(d0) {
    const int one = partitioned ? topo.add_domain(d1) : 0;
    const int two = partitioned ? topo.add_domain(d2) : 0;
    a0 = &topo.add_host("a0");
    a1 = &topo.add_host("a1");
    b = &topo.add_host("b", one);
    c = &topo.add_host("c", two);
    z = &topo.add_host("z", one);  // no links: nothing routes to it
    core = partitioned ? &topo.add_transit_router("core") : &topo.add_router("core");
    for (Host* h : {a0, a1, b, c}) {
      uplinks.push_back(topo.connect(*h, *core, 1e9, kDelay, kDropTail).first);
    }
    topo.compute_routes();
    for (Host* h : {a0, a1, b, c}) {
      sinks.push_back(std::make_unique<RecordingAgent>(
          topo.domain_sim(topo.node_domain(h->id()))));
      h->set_default_agent(sinks.back().get());
    }
  }

  /// Sends one 100-byte packet from `src` to `dst` at `uid` ms.
  void send(Host& src, NodeId dst, std::uint64_t uid) {
    const SimTime at = static_cast<SimTime>(uid) * kMillisecond;
    topo.domain_sim(topo.node_domain(src.id())).at(at, [&src, dst, uid] {
      Packet pkt;
      pkt.uid = uid;
      pkt.flow = 1;
      pkt.size_bytes = 100;
      pkt.src = src.id();
      pkt.dst = dst;
      src.send(std::move(pkt));
    });
  }

  std::string trace() const {
    std::string out;
    for (const auto& s : sinks) out += s->serialize() + "|";
    return out;
  }

  Simulation d0, d1, d2;
  Topology topo;
  Host* a0 = nullptr;
  Host* a1 = nullptr;
  Host* b = nullptr;
  Host* c = nullptr;
  Host* z = nullptr;
  Router* core = nullptr;
  std::vector<Link*> uplinks;  // a0, a1, b, c -> core
  std::vector<std::unique_ptr<RecordingAgent>> sinks;
};

TEST(TransitRouterTest, PacketIsHandedOnceToTheDomainItsRouteNames) {
  TransitStar probe(/*partitioned=*/true);
  const Topology& topo = probe.topo;
  // Every uplink is a boundary link with one channel per domain the core
  // feeds: 0, 1 and 2, in that order.
  ASSERT_EQ(topo.boundary_links().size(), 4u);
  ASSERT_EQ(topo.channels().size(), 12u);
  EXPECT_EQ(topo.min_boundary_delay(), TransitStar::kDelay);
  const auto to_domain = [&topo](std::size_t link, const Host& dst) {
    const std::size_t ch = topo.channel_for(link, dst.id());
    EXPECT_NE(ch, Topology::kNoChannel) << dst.name();
    EXPECT_EQ(topo.channels()[ch].boundary, link);
    return topo.channels()[ch].to_domain;
  };
  EXPECT_EQ(to_domain(0, *probe.c), 2);  // a0 -> core -> c
  EXPECT_EQ(to_domain(0, *probe.b), 1);
  EXPECT_EQ(to_domain(0, *probe.a1), 0);  // back into a0's own domain
  EXPECT_EQ(to_domain(2, *probe.c), 2);   // b -> core -> c
  EXPECT_TRUE(topo.channels()[topo.channel_for(0, probe.a1->id())].local());

  // End to end: every packet arrives when the monolithic run delivers it,
  // the local hop a0 -> a1 needs no handoff, the rest one each.
  const auto run = [](bool partitioned, unsigned threads) {
    TransitStar s(partitioned);
    s.send(*s.a0, s.c->id(), 1);
    s.send(*s.a0, s.b->id(), 2);
    s.send(*s.a0, s.a1->id(), 3);
    s.send(*s.b, s.c->id(), 4);
    DomainRunner runner(s.topo, threads);
    runner.run_until(50 * kMillisecond);
    EXPECT_EQ(s.core->packets_forwarded(), 4u);
    EXPECT_EQ(s.core->packets_unroutable(), 0u);
    return std::pair{s.trace(), runner.stats().handoffs};
  };
  const auto [whole, no_handoffs] = run(false, 1);
  EXPECT_EQ(no_handoffs, 0u);
  // Sent at uid ms; two 800 ns serializations and two 5 ms wires later.
  const auto arrival = [](std::uint64_t uid) {
    const SimTime at = static_cast<SimTime>(uid) * kMillisecond + 1600 + 2 * TransitStar::kDelay;
    return std::to_string(at) + ":" + std::to_string(uid) + ";";
  };
  EXPECT_EQ(whole, "|" + arrival(3) + "|" + arrival(2) + "|" + arrival(1) + arrival(4) + "|");
  for (const unsigned threads : {1u, 2u, 4u}) {
    const auto [trace, handoffs] = run(true, threads);
    EXPECT_EQ(trace, whole) << "threads=" << threads;
    EXPECT_EQ(handoffs, 3u) << "threads=" << threads;
  }
}

TEST(TransitRouterTest, UnknownDestinationThroughTheCoreIsCountedUnroutable) {
  for (const unsigned threads : {1u, 2u}) {
    TransitStar s(/*partitioned=*/true);
    // a0 sends everything up its one link: an id past every table, a node
    // the core has no route to, and an invalid id.
    s.a0->routing().set_route(999, s.uplinks[0]);
    s.a0->routing().set_route(s.z->id(), s.uplinks[0]);
    EXPECT_EQ(s.topo.channel_for(0, 999), Topology::kNoChannel);
    EXPECT_EQ(s.topo.channel_for(0, s.z->id()), Topology::kNoChannel);
    EXPECT_EQ(s.topo.channel_for(0, kInvalidNode), Topology::kNoChannel);
    s.send(*s.a0, 999, 1);
    s.send(*s.a0, s.z->id(), 2);
    s.topo.domain_sim(0).at(kMillisecond, [&s] {
      Packet pkt;
      pkt.uid = 3;
      pkt.size_bytes = 100;
      pkt.src = s.a0->id();
      pkt.dst = kInvalidNode;
      s.uplinks[0]->send(std::move(pkt));
    });
    DomainRunner runner(s.topo, threads);
    runner.run_until(50 * kMillisecond);
    EXPECT_EQ(s.uplinks[0]->packets_delivered(), 3u) << "threads=" << threads;
    EXPECT_EQ(s.core->packets_unroutable(), 3u) << "threads=" << threads;
    EXPECT_EQ(s.core->packets_forwarded(), 0u) << "threads=" << threads;
    EXPECT_EQ(runner.stats().handoffs, 0u) << "threads=" << threads;
    EXPECT_EQ(s.trace(), "||||") << "threads=" << threads;
  }
}

TEST(TransitRouterTest, StaleChannelsAndTransitToTransitLinksAreRejected) {
  Simulation sim_a(1);
  Simulation sim_b(1);
  Topology topo(sim_a);
  const int far = topo.add_domain(sim_b);
  Host& a = topo.add_host("a");
  Host& b = topo.add_host("b", far);
  Router& core = topo.add_transit_router("core");
  Router& spine = topo.add_transit_router("spine");
  EXPECT_TRUE(topo.is_transit(core.id()));
  EXPECT_EQ(topo.node_domain(core.id()), Topology::kTransitDomain);
  EXPECT_THROW(topo.add_link(core, spine, 1e6, kMillisecond, kDropTail), std::invalid_argument);
  // A link into a transit router may hand packets to any domain.
  EXPECT_THROW(topo.add_link(a, core, 1e6, 0, kDropTail), std::invalid_argument);
  // A link out of it runs in the domain it feeds.
  EXPECT_EQ(topo.link_domain(core, b), far);
  Link& down = topo.add_link(core, b, 1e6, 0, kDropTail);
  EXPECT_EQ(&down.sim(), &sim_b);
  topo.add_link(a, core, 1e6, kMillisecond, kDropTail);
  EXPECT_TRUE(topo.channels_stale());
  EXPECT_THROW(DomainRunner(topo, 2), std::logic_error);
  topo.compute_routes();
  EXPECT_FALSE(topo.channels_stale());
  EXPECT_EQ(topo.boundary_links().size(), 1u);
  EXPECT_NO_THROW(DomainRunner(topo, 2));
}

// ----------------------------------------------------- error propagation

TEST(DomainRunnerTest, WorkerExceptionSurfacesWithDomainAndWindowContext) {
  ChainScenario s(/*partitioned=*/true);
  // A scenario callback blowing up inside the far domain's worker must not
  // terminate the pool; it surfaces after the join naming the domain.
  s.sims[1]->at(500 * kMillisecond,
                [] { throw std::runtime_error("injected scenario fault"); });
  DomainRunner runner(*s.topo, 2);
  try {
    runner.run_until(2 * kSecond);
    FAIL() << "expected the captured worker exception";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("DomainRunner: domain 1 failed in window"), std::string::npos)
        << what;
    EXPECT_NE(what.find("injected scenario fault"), std::string::npos) << what;
  }
  // The runner object stays usable for inspection after the failure.
  EXPECT_GT(runner.stats().windows, 0u);
}

TEST(DomainRunnerTest, RunAfterAFailedRunIsRefused) {
  // The failed window stopped its domains at different times and left its
  // handoffs in the mailboxes: running on would deliver them late, so the
  // runner refuses and names the earlier failure.
  ChainScenario s(/*partitioned=*/true);
  s.sims[1]->at(500 * kMillisecond, [] { throw std::runtime_error("injected scenario fault"); });
  DomainRunner runner(*s.topo, 2);
  EXPECT_THROW(runner.run_until(kSecond), std::runtime_error);
  const std::uint64_t windows = runner.stats().windows;
  const SimTime far_now = s.sims[1]->now();
  try {
    runner.run_until(2 * kSecond);
    FAIL() << "expected the refusal";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("after a failed run"), std::string::npos) << what;
    EXPECT_NE(what.find("injected scenario fault"), std::string::npos) << what;
  }
  EXPECT_EQ(runner.stats().windows, windows);
  EXPECT_EQ(s.sims[1]->now(), far_now);

  ChainScenario single(/*partitioned=*/false);
  single.sims[0]->at(100 * kMillisecond, [] { throw std::runtime_error("boom"); });
  DomainRunner serial(*single.topo, 1);
  EXPECT_THROW(serial.run_until(kSecond), std::runtime_error);
  EXPECT_THROW(serial.run_until(2 * kSecond), std::logic_error);
}

TEST(DomainRunnerTest, SingleDomainExceptionIsWrappedWithDomainZero) {
  ChainScenario s(/*partitioned=*/false);
  s.sims[0]->at(100 * kMillisecond, [] { throw std::runtime_error("boom"); });
  DomainRunner runner(*s.topo, 1);
  try {
    runner.run_until(kSecond);
    FAIL() << "expected the wrapped exception";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("DomainRunner: domain 0 failed:"), std::string::npos) << what;
    EXPECT_NE(what.find("boom"), std::string::npos) << what;
  }
}

TEST(DomainRunnerTest, StallWatchdogNamesEveryDomainState) {
  ChainScenario s(/*partitioned=*/true);
  DomainRunner runner(*s.topo, 2);
  // A live chain needs thousands of windows for 2 s; a budget of 1 trips
  // the watchdog immediately and the diagnostic must carry per-domain state.
  runner.set_max_windows_for_test(1);
  try {
    runner.run_until(2 * kSecond);
    FAIL() << "expected the stall watchdog";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stall watchdog tripped"), std::string::npos) << what;
    EXPECT_NE(what.find("[domain 0:"), std::string::npos) << what;
    EXPECT_NE(what.find("[domain 1:"), std::string::npos) << what;
  }
  // Restoring the computed budget lets the same runner finish the run.
  runner.set_max_windows_for_test(0);
  runner.run_until(2 * kSecond);
  EXPECT_EQ(s.sims[0]->now(), 2 * kSecond);
  EXPECT_EQ(s.sims[1]->now(), 2 * kSecond);
}

}  // namespace
}  // namespace pels
