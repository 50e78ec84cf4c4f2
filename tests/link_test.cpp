// Tests for the Link transmit pipeline (src/net/link.cpp): exact
// serialization/propagation timing under deep pipelining, the single-pending-
// event invariant of the coalesced event model, utilization pro-rating,
// carrier loss mid-flight, brown-outs, composed corruption processes, and
// steady-state zero-growth of the scheduler pool (see DESIGN.md "Event
// model").
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "fault/loss_process.h"
#include "net/host.h"
#include "net/link.h"
#include "net/packet.h"
#include "net/router.h"
#include "net/topology.h"
#include "queue/drop_tail.h"
#include "sim/simulation.h"
#include "sim/timer.h"
#include "util/time.h"

namespace pels {
namespace {

Packet make_packet(std::int32_t size, std::uint64_t seq = 0) {
  Packet p;
  p.size_bytes = size;
  p.seq = seq;
  p.color = Color::kGreen;
  return p;
}

/// Test node that records deliveries with timestamps.
class RecordingNode : public Node {
 public:
  RecordingNode(NodeId id, Simulation& sim) : Node(id, "rec"), sim_(sim) {}
  void receive(Packet&& pkt) override {
    arrivals.emplace_back(sim_.now(), std::move(pkt));
  }
  std::vector<std::pair<SimTime, Packet>> arrivals;

 private:
  Simulation& sim_;
};

// ------------------------------------------------- pipelined timing

TEST(LinkPipelineTest, BackToBackArrivalsSpacedByExactSerializationTime) {
  // 500 bytes at 4 mb/s = 1 ms serialization; 5 ms propagation. The first
  // packet arrives at tx + prop; each subsequent one exactly one
  // serialization time later, regardless of propagation depth.
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, from_millis(5), std::make_unique<DropTailQueue>(64));
  const int n = 10;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(link.send(make_packet(500, static_cast<std::uint64_t>(i))));
  }
  sim.run();
  ASSERT_EQ(dst.arrivals.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(dst.arrivals[static_cast<std::size_t>(i)].first,
              from_millis(i + 1 + 5))
        << "packet " << i;
    EXPECT_EQ(dst.arrivals[static_cast<std::size_t>(i)].second.seq,
              static_cast<std::uint64_t>(i));
  }
}

TEST(LinkPipelineTest, OnePendingEventNoMatterHowManyPacketsInFlight) {
  // A long-propagation link with the whole burst on the wire must hold ONE
  // scheduler event (the ring head's arrival), not one per packet.
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, from_millis(100), std::make_unique<DropTailQueue>(64));
  const int n = 8;
  for (int i = 0; i < n; ++i) link.send(make_packet(500));
  // At 8.5 ms every packet has been serialized (the last finishes at 8 ms)
  // and none has arrived (first arrival at 101 ms): the pipeline is at its
  // deepest. The probe itself is already executing, so the only pending
  // event left is the link's.
  bool probed = false;
  sim.at(from_millis(8.5), [&] {
    probed = true;
    EXPECT_EQ(link.packets_in_flight(), static_cast<std::size_t>(n));
    EXPECT_EQ(sim.scheduler().pending(), 1u);
  });
  sim.run();
  EXPECT_TRUE(probed);
  EXPECT_EQ(dst.arrivals.size(), static_cast<std::size_t>(n));
}

TEST(LinkPipelineTest, AtMostOneEventPerPacketPlusPipelineFill) {
  // The coalesced model costs at most one event per packet in steady state;
  // the only extra events are the pipeline-fill transient (one pull per
  // serialization slot before the first arrival coalesces with it).
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, from_millis(5), std::make_unique<DropTailQueue>(64));
  const int n = 50;
  for (int i = 0; i < n; ++i) link.send(make_packet(500));
  sim.run();
  ASSERT_EQ(dst.arrivals.size(), static_cast<std::size_t>(n));
  EXPECT_LE(link.pipeline_events(), static_cast<std::uint64_t>(n) + 6);
}

// ------------------------------------------------------ utilization

TEST(LinkUtilizationTest, ProRatesTheSerializationInProgress) {
  // Regression: utilization() used to charge the full serialization time the
  // moment a packet hit the wire, reporting 200% mid-packet. 1000 bytes at
  // 4 mb/s = 2 ms of wire time starting at t = 0.
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, 0, std::make_unique<DropTailQueue>(16));
  link.send(make_packet(1000));
  double mid = -1.0, after = -1.0;
  sim.at(from_millis(1), [&] { mid = link.utilization(); });    // half-way
  sim.at(from_millis(4), [&] { after = link.utilization(); });  // 2 ms idle
  sim.run();
  EXPECT_DOUBLE_EQ(mid, 1.0);  // busy for all of the elapsed 1 ms, not 200%
  EXPECT_DOUBLE_EQ(after, 0.5);
}

TEST(LinkUtilizationTest, AccumulatesAcrossFinishedPackets) {
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, 0, std::make_unique<DropTailQueue>(16));
  link.send(make_packet(1000));  // wire busy 0-2 ms
  link.send(make_packet(1000));  // wire busy 2-4 ms
  double mid = -1.0, end = -1.0;
  sim.at(from_millis(3), [&] { mid = link.utilization(); });
  sim.at(from_millis(8), [&] { end = link.utilization(); });
  sim.run();
  EXPECT_DOUBLE_EQ(mid, 1.0);  // 2 ms finished + 1 ms of the second packet
  EXPECT_DOUBLE_EQ(end, 0.5);  // 4 ms of wire time over 8 ms elapsed
}

// ------------------------------------------------------- fault modes

TEST(LinkFaultTest, DownMidFlightLosesOnlyTheWirePacket) {
  // Three packets, 1 ms serialization each, 10 ms propagation. The link goes
  // down at 1.5 ms: packet 0 is already propagating (arrives on schedule at
  // 11 ms), packet 1 is on the wire (carrier loss), packet 2 waits in the
  // queue. The link comes back at 5 ms: packet 2 serializes 5-6 ms and
  // arrives at 16 ms, order preserved.
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, from_millis(10), std::make_unique<DropTailQueue>(16));
  // A counting corruption process doubles as a probe that carrier-lost
  // packets never reach the corruption stage.
  auto seen = std::make_shared<std::vector<SimTime>>();
  link.add_corruption([seen](SimTime now) {
    seen->push_back(now);
    return false;
  });
  for (int i = 0; i < 3; ++i) link.send(make_packet(500, static_cast<std::uint64_t>(i)));
  sim.at(from_millis(1.5), [&] { link.set_up(false); });
  sim.at(from_millis(5), [&] { link.set_up(true); });
  sim.run();
  ASSERT_EQ(dst.arrivals.size(), 2u);
  EXPECT_EQ(dst.arrivals[0].first, from_millis(11));
  EXPECT_EQ(dst.arrivals[0].second.seq, 0u);
  EXPECT_EQ(dst.arrivals[1].first, from_millis(16));
  EXPECT_EQ(dst.arrivals[1].second.seq, 2u);
  EXPECT_EQ(link.packets_corrupted(), 1u);
  // The corruption process saw the delivered packets (at their recorded
  // serialization-end times) and not the carrier-lost one.
  ASSERT_EQ(seen->size(), 2u);
  EXPECT_EQ((*seen)[0], from_millis(1));
  EXPECT_EQ((*seen)[1], from_millis(6));
}

TEST(LinkFaultTest, CarrierLostSlotIsCleanWhenTheRingWrapsOntoIt) {
  // The in-flight ring reuses slots in place. With no propagation delay at
  // most one packet is in flight, so the ring keeps its first 8 slots and
  // wraps: the slot that held the carrier-lost packet is refilled by the
  // ninth packet after the outage, which must arrive like every other.
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, 0, std::make_unique<DropTailQueue>(64));
  link.send(make_packet(500, 0));  // on the wire 0-1 ms
  sim.at(from_micros(500), [&] { link.set_up(false); });
  const int n = 20;
  sim.at(from_micros(600), [&] {
    for (int i = 1; i <= n; ++i) link.send(make_packet(500, static_cast<std::uint64_t>(i)));
  });
  sim.at(from_millis(2), [&] { link.set_up(true); });
  sim.run();
  ASSERT_EQ(dst.arrivals.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(dst.arrivals[static_cast<std::size_t>(i)].second.seq,
              static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(dst.arrivals[static_cast<std::size_t>(i)].first, from_millis(3 + i));
  }
  EXPECT_EQ(link.packets_corrupted(), 1u);
  EXPECT_EQ(link.packets_delivered(), static_cast<std::uint64_t>(n));
}

TEST(LinkFaultTest, QueueKeepsAcceptingWhileDown) {
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, 0, std::make_unique<DropTailQueue>(16));
  link.set_up(false);
  EXPECT_TRUE(link.send(make_packet(500, 7)));
  EXPECT_EQ(link.queue().packet_count(), 1u);
  sim.at(from_millis(3), [&] { link.set_up(true); });
  sim.run();
  ASSERT_EQ(dst.arrivals.size(), 1u);
  EXPECT_EQ(dst.arrivals[0].first, from_millis(4));
  EXPECT_EQ(dst.arrivals[0].second.seq, 7u);
}

TEST(LinkFaultTest, BrownoutAppliesAtNextSerializationStart) {
  // The packet on the wire finishes at the rate it started with; the next
  // one serializes at the degraded rate.
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, 0, std::make_unique<DropTailQueue>(16));
  link.send(make_packet(500));  // 1 ms at 4 mb/s
  link.send(make_packet(500));  // 2 ms at 2 mb/s
  sim.at(from_micros(500), [&] { link.set_bandwidth_bps(2e6); });
  sim.run();
  ASSERT_EQ(dst.arrivals.size(), 2u);
  EXPECT_EQ(dst.arrivals[0].first, from_millis(1));
  EXPECT_EQ(dst.arrivals[1].first, from_millis(3));
}

TEST(LinkFaultTest, ComposedCorruptionProcessesAllSeeEveryPacket) {
  // Two stacked processes: the first loses exactly the first packet, the
  // second only counts. Both must be consulted for every serialized packet
  // (no short-circuit) so stateful chains evolve deterministically, and each
  // sees the packet's serialization-end time.
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, 0, std::make_unique<DropTailQueue>(16));
  auto first_seen = std::make_shared<std::vector<SimTime>>();
  auto second_seen = std::make_shared<std::vector<SimTime>>();
  link.add_corruption([first_seen](SimTime now) {
    first_seen->push_back(now);
    return first_seen->size() == 1;  // lose only the first packet
  });
  link.add_corruption([second_seen](SimTime now) {
    second_seen->push_back(now);
    return false;
  });
  for (int i = 0; i < 3; ++i) link.send(make_packet(500, static_cast<std::uint64_t>(i)));
  sim.run();
  const std::vector<SimTime> expected = {from_millis(1), from_millis(2),
                                         from_millis(3)};
  EXPECT_EQ(*first_seen, expected);
  EXPECT_EQ(*second_seen, expected);
  EXPECT_EQ(link.packets_corrupted(), 1u);
  ASSERT_EQ(dst.arrivals.size(), 2u);
  EXPECT_EQ(dst.arrivals[0].second.seq, 1u);
  EXPECT_EQ(dst.arrivals[1].second.seq, 2u);
}

TEST(LinkFaultTest, GilbertElliottChainComposesWithBernoulli) {
  // A stateful Gilbert-Elliott chain stacked under a Bernoulli process must
  // still be consulted once per serialized packet: total consultations equal
  // packets serialized, and corruption stays within sane bounds.
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, 0, std::make_unique<DropTailQueue>(600));
  GilbertElliottConfig ge;
  ge.p_good_to_bad = 0.05;
  ge.p_bad_to_good = 0.20;
  ge.loss_bad = 1.0;
  auto calls = std::make_shared<std::uint64_t>(0);
  GilbertElliottLoss chain(ge, sim.make_rng(0x6E11));
  link.add_corruption([calls, chain](SimTime now) mutable {
    ++*calls;
    return chain(now);
  });
  link.set_corruption(0.01, sim.make_rng(0xBEE));
  const int n = 500;
  for (int i = 0; i < n; ++i) link.send(make_packet(500));
  sim.run();
  EXPECT_EQ(*calls, static_cast<std::uint64_t>(n));
  EXPECT_EQ(dst.arrivals.size() + link.packets_corrupted(),
            static_cast<std::size_t>(n));
  EXPECT_GT(link.packets_corrupted(), 0u);
  EXPECT_LT(link.packets_corrupted(), static_cast<std::uint64_t>(n) / 2);
}

// ------------------------------------------- steady-state allocation

TEST(LinkSteadyStateTest, SchedulerPoolDoesNotGrowAfterReserveRuntime) {
  // A saturated host -> router -> host chain, pre-sized with
  // Topology::reserve_runtime: after warm-up, sustained traffic must not
  // grow the scheduler's heap or slot pool (Scheduler::Stats growth probes).
  Simulation sim;
  Topology topo(sim);
  Host& src = topo.add_host("src");
  Router& r = topo.add_router("r");
  Host& dst = topo.add_host("dst");
  const double bps = 10e6;
  const QueueFactory q = [](double) {
    return std::make_unique<DropTailQueue>(256);
  };
  topo.connect(src, r, bps, from_millis(2), q);
  topo.connect(r, dst, bps, from_millis(2), q);
  topo.compute_routes();
  topo.reserve_runtime(1);

  // Pace at exactly the line rate so both links stay busy without queueing.
  const SimTime spacing = transmission_time(1000, bps);
  PeriodicTimer pacer(sim.scheduler(), spacing, [&] {
    Packet p = make_packet(1000);
    p.flow = 7;
    p.src = src.id();
    p.dst = dst.id();
    src.send(std::move(p));
  });
  pacer.start();

  sim.run_until(from_millis(200));  // warm-up: fill both pipelines
  const Scheduler::Stats warm = sim.scheduler().stats();
  sim.run_until(from_millis(1200));
  const Scheduler::Stats done = sim.scheduler().stats();
  pacer.stop();

  EXPECT_GT(done.executed, warm.executed + 1000);  // traffic actually flowed
  EXPECT_EQ(done.heap_capacity, warm.heap_capacity);
  EXPECT_EQ(done.slot_capacity, warm.slot_capacity);
  EXPECT_EQ(done.slots, warm.slots);
}

}  // namespace
}  // namespace pels
