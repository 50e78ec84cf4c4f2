// Allocation regression test for the dumbbell packet path: after warm-up, a
// delivered PELS packet must not touch the heap. Edge FIFOs, the sources'
// send buffers, the sinks' frame windows and the scheduler's wheel buckets
// all reach their high-water marks during warm-up and recycle storage from
// then on. What remains in the timed window is the amortised growth of
// append-only result logs (per-packet delay series, frame qualities,
// control-interval trajectories), which double a few times per run, not per
// packet, plus the last wheel buckets meeting a new high-water mark. A
// second case holds cross-domain handoffs (DomainRunner mailboxes and the
// topology's boundary-link inboxes) to zero allocations once warm.
#include <cstdint>

#include <gtest/gtest.h>

#include "exp/domain_runner.h"
#include "net/topology.h"
#include "pels/scenario.h"
#include "queue/drop_tail.h"
#include "sim/timer.h"
#include "util/heap_count.h"

namespace pels {
namespace {

std::uint64_t pels_delivered(DumbbellScenario& s) {
  std::uint64_t n = 0;
  for (int i = 0; i < s.pels_flow_count(); ++i) {
    for (std::size_t c = 0; c < kNumColors; ++c)
      n += s.sink(i).packets_received(static_cast<Color>(c));
  }
  return n;
}

TEST(PacketPathAllocTest, DumbbellWindowAllocatesUnderOneHundredthPerPacket) {
  // The Fig. 6 dumbbell with everything the repo benchmark's dumbbell runs:
  // PELS and TCP flows through a congested PelsQueue (red drops), telemetry
  // and the invariant monitor.
  ScenarioConfig cfg;
  cfg.pels_flows = 3;
  cfg.tcp_flows = 2;
  cfg.seed = 11;
  cfg.start_times = {0, from_millis(130), from_millis(370)};
  cfg.telemetry.enabled = true;
  cfg.telemetry.period = from_millis(100);
  cfg.telemetry.max_samples = 1024;
  cfg.invariants.enabled = true;
  cfg.invariants.abort_on_violation = true;
  // Wheel buckets each reach their own high-water mark, so the warm-up spans
  // several level-1 periods (8.6 s each), as a long streaming run would.
  const SimTime warmup = 60 * kSecond;
  const SimTime window = 10 * kSecond;

  DumbbellScenario s(cfg);
  s.run_until(warmup);
  const std::uint64_t delivered0 = pels_delivered(s);
  const std::uint64_t allocs0 = heap_counts().allocs;
  s.run_until(warmup + window);
  const std::uint64_t allocs = heap_counts().allocs - allocs0;
  const std::uint64_t delivered = pels_delivered(s) - delivered0;

  ASSERT_GT(delivered, 5000u);
  const double per_pkt = static_cast<double>(allocs) / static_cast<double>(delivered);
  EXPECT_LE(per_pkt, 0.01) << allocs << " heap allocations for " << delivered
                           << " delivered PELS packets";
  EXPECT_GT(s.pels_queue()->pels_group_counters().drops[2], 0u)
      << "the window should exercise the congested (red-drop) path";
}

/// Counts arrivals without logging them: the sink must not allocate either.
struct CountingAgent : public Agent {
  void on_packet(const Packet&) override { ++arrivals; }
  std::uint64_t arrivals = 0;
};

TEST(PacketPathAllocTest, WarmDomainHandoffsAllocateNothing) {
  // A two-domain chain a - r1 ===boundary=== r2 - b with traffic both ways:
  // every packet crosses the boundary through a mailbox at the barrier and
  // the destination link's inbox after it. Once the mailboxes and inboxes
  // reach their high-water marks, a handoff touches no heap. The schedulers
  // run heap-only: wheel buckets keep meeting new high-water marks for
  // minutes (the dumbbell test above budgets for that), while the heap tier
  // is pre-sized, so any allocation left in the window is the handoff's.
  Simulation near(3);
  Simulation far(3);
  near.scheduler().set_wheel_enabled(false);
  far.scheduler().set_wheel_enabled(false);
  Topology topo(near);
  const int d = topo.add_domain(far);
  const QueueFactory drop_tail = [](double) { return std::make_unique<DropTailQueue>(64); };
  Host& a = topo.add_host("a");
  Router& r1 = topo.add_router("r1");
  Router& r2 = topo.add_router("r2", d);
  Host& b = topo.add_host("b", d);
  topo.connect(a, r1, 10e6, kMillisecond, drop_tail);
  topo.connect(r1, r2, 8e6, 10 * kMillisecond, drop_tail);
  topo.connect(r2, b, 10e6, kMillisecond, drop_tail);
  topo.compute_routes();
  topo.reserve_runtime(2);
  CountingAgent at_a;
  CountingAgent at_b;
  b.register_agent(1, &at_b);
  a.register_agent(2, &at_a);
  const auto pace = [](Scheduler& sched, Host& src, NodeId dst, FlowId flow, double pps) {
    return std::make_unique<PeriodicTimer>(sched, from_seconds(1.0 / pps), [&src, dst, flow] {
      Packet pkt;
      pkt.flow = flow;
      pkt.size_bytes = 500;
      pkt.src = src.id();
      pkt.dst = dst;
      src.send(std::move(pkt));
    });
  };
  auto forward = pace(near.scheduler(), a, b.id(), 1, 1500.0);
  auto reverse = pace(far.scheduler(), b, a.id(), 2, 700.0);
  forward->start();
  reverse->start();

  DomainRunner runner(topo, 2);
  runner.run_until(5 * kSecond);
  const std::uint64_t handoffs0 = runner.stats().handoffs;
  const std::uint64_t allocs0 = heap_counts().allocs;
  runner.run_until(15 * kSecond);
  const std::uint64_t allocs = heap_counts().allocs - allocs0;
  const std::uint64_t handoffs = runner.stats().handoffs - handoffs0;

  ASSERT_GT(handoffs, 8000u);
  EXPECT_GT(at_a.arrivals, 0u);
  EXPECT_GT(at_b.arrivals, 0u);
  EXPECT_EQ(allocs, 0u) << allocs << " heap allocations for " << handoffs << " handoffs";
}

}  // namespace
}  // namespace pels
