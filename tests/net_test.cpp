// Tests for src/net: packet/feedback-label semantics, link timing (serialization
// + propagation), host/agent dispatch, router forwarding, topology routing.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "net/host.h"
#include "net/link.h"
#include "net/packet.h"
#include "net/router.h"
#include "net/tcm.h"
#include "net/topology.h"
#include "one_flow.h"
#include "queue/drop_tail.h"
#include "sim/simulation.h"

namespace pels {
namespace {

Packet make_packet(std::int32_t size, Color color = Color::kGreen) {
  Packet p;
  p.size_bytes = size;
  p.color = color;
  return p;
}

// --------------------------------------------------------------- Packet

TEST(PacketTest, ColorPredicates) {
  EXPECT_TRUE(is_pels_color(Color::kGreen));
  EXPECT_TRUE(is_pels_color(Color::kYellow));
  EXPECT_TRUE(is_pels_color(Color::kRed));
  EXPECT_FALSE(is_pels_color(Color::kInternet));
  EXPECT_FALSE(is_pels_color(Color::kAck));
}

TEST(PacketTest, ColorNames) {
  EXPECT_STREQ(color_name(Color::kGreen), "green");
  EXPECT_STREQ(color_name(Color::kYellow), "yellow");
  EXPECT_STREQ(color_name(Color::kRed), "red");
  EXPECT_STREQ(color_name(Color::kInternet), "internet");
  EXPECT_STREQ(color_name(Color::kAck), "ack");
}

TEST(FeedbackLabelTest, FirstStampAlwaysApplies) {
  FeedbackLabel label;
  EXPECT_FALSE(label.valid);
  label.maybe_override(3, 7, -0.5, -0.5);
  EXPECT_TRUE(label.valid);
  EXPECT_EQ(label.router_id, 3);
  EXPECT_EQ(label.epoch, 7u);
  EXPECT_DOUBLE_EQ(label.loss, -0.5);
}

TEST(FeedbackLabelTest, OverridesOnlyWithLargerLoss) {
  // Max-min rule: the most congested router's label wins (paper §5.2).
  FeedbackLabel label;
  label.maybe_override(1, 5, 0.10, 0.12);
  label.maybe_override(2, 9, 0.05, 0.06);  // less congested: ignored
  EXPECT_EQ(label.router_id, 1);
  EXPECT_EQ(label.epoch, 5u);
  label.maybe_override(2, 10, 0.20, 0.25);  // more congested: wins
  EXPECT_EQ(label.router_id, 2);
  EXPECT_DOUBLE_EQ(label.loss, 0.20);
}

TEST(FeedbackLabelTest, SameRouterRefreshesDownward) {
  // Regression: a router must be able to revise its *own* label downward
  // when its congestion clears. The old code applied the max-min `p > loss`
  // rule to the stamping router itself, latching the highest loss it ever
  // reported.
  FeedbackLabel label;
  label.maybe_override(1, 5, 0.50, 0.60);
  label.maybe_override(1, 6, -0.30, -0.25);  // bottleneck cleared
  EXPECT_EQ(label.router_id, 1);
  EXPECT_EQ(label.epoch, 6u);
  EXPECT_DOUBLE_EQ(label.loss, -0.30);
  EXPECT_DOUBLE_EQ(label.fgs_loss, -0.25);
}

TEST(FeedbackLabelTest, EpochFreshnessHelper) {
  EXPECT_TRUE(epoch_is_fresh(5, 6));       // normal advance
  EXPECT_FALSE(epoch_is_fresh(5, 5));      // repeat
  EXPECT_FALSE(epoch_is_fresh(8, 6));      // small backward jump: reordering
  EXPECT_FALSE(epoch_is_fresh(130, 2));    // jump of exactly the gap: stale
  EXPECT_TRUE(epoch_is_fresh(131, 2));     // beyond the gap: router restart
  EXPECT_TRUE(epoch_is_fresh(700, 1));     // restart from scratch
}

TEST(FeedbackLabelTest, SameRouterAcceptsEpochAfterRestart) {
  // A backward jump larger than kEpochRestartGap can only mean the router
  // restarted and is counting epochs from 1 again. Without this rule the
  // label (and every consumer keyed on it) would stay pinned to the
  // pre-restart epoch until the reborn router counts past it — minutes of
  // deafness at T = 30 ms.
  FeedbackLabel label;
  label.maybe_override(1, 700, 0.10, 0.12);
  label.maybe_override(1, 2, -0.40, -0.35);  // restarted router, fresh report
  EXPECT_EQ(label.router_id, 1);
  EXPECT_EQ(label.epoch, 2u);
  EXPECT_DOUBLE_EQ(label.loss, -0.40);
}

TEST(FeedbackLabelTest, SameRouterStillIgnoresSmallBackwardJump) {
  // Backward jumps within the gap are reordered stale labels, not restarts
  // (red-band queueing delays labels by at most ~100 epochs by design).
  FeedbackLabel label;
  label.maybe_override(1, 700, 0.10, 0.12);
  label.maybe_override(1, 640, 0.90, 0.95);  // stale, within the gap
  EXPECT_EQ(label.epoch, 700u);
  EXPECT_DOUBLE_EQ(label.loss, 0.10);
}

TEST(FeedbackLabelTest, SameRouterIgnoresStaleEpoch) {
  // A reordered packet may carry an older same-router report; it must not
  // roll the label back in time.
  FeedbackLabel label;
  label.maybe_override(1, 8, 0.10, 0.12);
  label.maybe_override(1, 6, 0.90, 0.95);  // stale epoch: ignored
  EXPECT_EQ(label.epoch, 8u);
  EXPECT_DOUBLE_EQ(label.loss, 0.10);
  label.maybe_override(1, 8, 0.30, 0.35);  // same epoch: refresh is fine
  EXPECT_DOUBLE_EQ(label.loss, 0.30);
}

TEST(FeedbackLabelTest, CrossRouterMaxMinUnaffectedByRefreshRule) {
  // The same-router refresh must not weaken max-min semantics across
  // routers: a *different* router still needs strictly larger loss to win.
  FeedbackLabel label;
  label.maybe_override(1, 5, 0.40, 0.45);
  label.maybe_override(2, 50, 0.40, 0.45);  // equal loss: stored label kept
  EXPECT_EQ(label.router_id, 1);
  label.maybe_override(2, 51, 0.10, 0.15);  // smaller: kept
  EXPECT_EQ(label.router_id, 1);
  // Router 1 revises down, and now router 2's report can take over.
  label.maybe_override(1, 6, 0.05, 0.06);
  label.maybe_override(2, 52, 0.10, 0.15);
  EXPECT_EQ(label.router_id, 2);
  EXPECT_DOUBLE_EQ(label.loss, 0.10);
}

TEST(FeedbackLabelTest, SenderRateRecoversAfterBottleneckClears) {
  // End-to-end regression for the stale-label bug: drive an MKC controller
  // from one persistent label. While the router reports congestion the rate
  // collapses; once the same router reports a cleared bottleneck (negative
  // loss in fresh epochs) the rate must ramp back up. With the latched
  // label the controller kept seeing p = 0.5 forever and stayed pinned.
  OneFlow mkc(CcKind::kMkc);
  FeedbackLabel label;
  std::uint64_t z = 1;
  for (int i = 0; i < 50; ++i) {
    label.maybe_override(7, z++, 0.5, 0.5);
    mkc.feedback(label.loss);
  }
  const double congested_rate = mkc.rate_bps();
  EXPECT_LT(congested_rate, MkcConfig{}.initial_rate_bps);
  for (int i = 0; i < 50; ++i) {
    label.maybe_override(7, z++, -0.5, -0.5);
    mkc.feedback(label.loss);
  }
  EXPECT_DOUBLE_EQ(label.loss, -0.5);
  EXPECT_GT(mkc.rate_bps(), 10.0 * congested_rate);
}

// ------------------------------------------------------------------ Link

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

TEST(LinkTest, SingleDeliveryTiming) {
  Simulation sim;
  RecordingNode dst(0, sim);
  // 500 bytes at 4 mb/s = 1 ms serialization; 10 ms propagation.
  Link link(sim, dst, 4e6, from_millis(10), std::make_unique<DropTailQueue>(16));
  EXPECT_TRUE(link.send(make_packet(500)));
  sim.run();
  ASSERT_EQ(dst.arrivals.size(), 1u);
  EXPECT_EQ(dst.arrivals[0].first, from_millis(11));
}

TEST(LinkTest, BackToBackPacketsSerializeSequentially) {
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, 0, std::make_unique<DropTailQueue>(16));
  link.send(make_packet(500));
  link.send(make_packet(500));
  link.send(make_packet(500));
  sim.run();
  ASSERT_EQ(dst.arrivals.size(), 3u);
  EXPECT_EQ(dst.arrivals[0].first, from_millis(1));
  EXPECT_EQ(dst.arrivals[1].first, from_millis(2));
  EXPECT_EQ(dst.arrivals[2].first, from_millis(3));
}

TEST(LinkTest, PropagationIsPipelined) {
  // With a long propagation delay, packet 2 must not wait for packet 1 to
  // arrive — only for the wire to be free.
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, from_millis(100), std::make_unique<DropTailQueue>(16));
  link.send(make_packet(500));
  link.send(make_packet(500));
  sim.run();
  ASSERT_EQ(dst.arrivals.size(), 2u);
  EXPECT_EQ(dst.arrivals[0].first, from_millis(101));
  EXPECT_EQ(dst.arrivals[1].first, from_millis(102));  // not 202
}

TEST(LinkTest, QueueOverflowDrops) {
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, 0, std::make_unique<DropTailQueue>(2));
  // First send starts transmitting immediately (dequeued), so the queue
  // holds the next two; the fourth is dropped.
  EXPECT_TRUE(link.send(make_packet(500)));
  EXPECT_TRUE(link.send(make_packet(500)));
  EXPECT_TRUE(link.send(make_packet(500)));
  EXPECT_FALSE(link.send(make_packet(500)));
  sim.run();
  EXPECT_EQ(dst.arrivals.size(), 3u);
  EXPECT_EQ(link.queue().counters().total_drops(), 1u);
}

TEST(LinkTest, DeliveryCountersAdvance) {
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 1e6, 0, std::make_unique<DropTailQueue>(16));
  link.send(make_packet(100));
  link.send(make_packet(200));
  sim.run();
  EXPECT_EQ(link.packets_delivered(), 2u);
  EXPECT_EQ(link.bytes_delivered(), 300u);
}

TEST(LinkTest, UtilizationReflectsBusyFraction) {
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, 0, std::make_unique<DropTailQueue>(16));
  link.send(make_packet(500));  // 1 ms busy
  sim.run();                    // sim ends at 1 ms
  EXPECT_NEAR(link.utilization(), 1.0, 1e-9);
  sim.run_until(from_millis(2));
  EXPECT_NEAR(link.utilization(), 0.5, 1e-9);
}

TEST(LinkTest, IdleLinkRestartsOnNewArrival) {
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, 0, std::make_unique<DropTailQueue>(16));
  link.send(make_packet(500));
  sim.run();
  EXPECT_EQ(dst.arrivals.size(), 1u);
  sim.at(from_millis(10), [&] { link.send(make_packet(500)); });
  sim.run();
  ASSERT_EQ(dst.arrivals.size(), 2u);
  EXPECT_EQ(dst.arrivals[1].first, from_millis(11));
}

// --------------------------------------------------------- Host dispatch

class CountingAgent : public Agent {
 public:
  void on_packet(const Packet& pkt) override {
    ++count;
    last = pkt;
  }
  int count = 0;
  Packet last;
};

TEST(HostTest, DispatchesByFlowId) {
  Host host(0, "h");
  CountingAgent a1, a2;
  host.register_agent(1, &a1);
  host.register_agent(2, &a2);
  Packet p = make_packet(100);
  p.flow = 2;
  host.receive(std::move(p));
  EXPECT_EQ(a1.count, 0);
  EXPECT_EQ(a2.count, 1);
  EXPECT_EQ(host.packets_received(), 1u);
}

TEST(HostTest, UnknownFlowIsCountedNotCrashed) {
  Host host(0, "h");
  Packet p = make_packet(100);
  p.flow = 42;
  host.receive(std::move(p));
  EXPECT_EQ(host.packets_undeliverable(), 1u);
}

TEST(HostTest, UnregisterStopsDispatch) {
  Host host(0, "h");
  CountingAgent a;
  host.register_agent(1, &a);
  host.unregister_agent(1);
  Packet p = make_packet(100);
  p.flow = 1;
  host.receive(std::move(p));
  EXPECT_EQ(a.count, 0);
}

TEST(HostTest, FlowPastTableOrInvalidFallsThroughToDefaultAgent) {
  Host host(0, "h");
  CountingAgent dedicated, fallback;
  host.register_agent(1, &dedicated);  // table covers flows 0..1
  host.set_default_agent(&fallback);
  for (const FlowId flow : {FlowId{0}, FlowId{1}, FlowId{5}, kInvalidFlow}) {
    Packet p = make_packet(100);
    p.flow = flow;
    host.receive(std::move(p));
  }
  EXPECT_EQ(dedicated.count, 1);
  EXPECT_EQ(fallback.count, 3);  // unregistered 0, past-the-table 5, invalid
  EXPECT_EQ(fallback.last.flow, kInvalidFlow);
  EXPECT_EQ(host.packets_undeliverable(), 0u);
}

TEST(HostTest, FlowPastTableOrInvalidWithoutDefaultIsUndeliverable) {
  Host host(0, "h");
  CountingAgent a;
  host.register_agent(3, &a);
  for (const FlowId flow : {FlowId{4}, FlowId{1000}, kInvalidFlow}) {
    Packet p = make_packet(100);
    p.flow = flow;
    host.receive(std::move(p));
  }
  EXPECT_EQ(a.count, 0);
  EXPECT_EQ(host.packets_received(), 3u);
  EXPECT_EQ(host.packets_undeliverable(), 3u);
}

TEST(HostTest, RegisteringANegativeFlowThrows) {
  Host host(0, "h");
  CountingAgent a;
  EXPECT_THROW(host.register_agent(kInvalidFlow, &a), std::invalid_argument);
}

TEST(HostTest, SendWithoutRouteFails) {
  Host host(0, "h");
  Packet p = make_packet(100);
  p.dst = 5;
  EXPECT_FALSE(host.send(std::move(p)));
  EXPECT_EQ(host.packets_undeliverable(), 1u);
}

// ---------------------------------------------------------------- Router

TEST(RouterTest, ForwardsAlongTable) {
  Simulation sim;
  RecordingNode dst(7, sim);
  Link link(sim, dst, 1e6, 0, std::make_unique<DropTailQueue>(16));
  Router router(1, "r");
  router.routing().set_route(7, &link);
  Packet p = make_packet(100);
  p.dst = 7;
  router.receive(std::move(p));
  sim.run();
  EXPECT_EQ(dst.arrivals.size(), 1u);
  EXPECT_EQ(router.packets_forwarded(), 1u);
}

TEST(HostTest, SendToDestinationPastTableOrInvalidIsUndeliverable) {
  Simulation sim;
  RecordingNode dst(3, sim);
  Link link(sim, dst, 1e6, 0, std::make_unique<DropTailQueue>(16));
  Host host(0, "h");
  host.routing().set_route(3, &link);  // table covers nodes 0..3
  for (const NodeId to : {NodeId{4}, NodeId{99}, kInvalidNode}) {
    Packet p = make_packet(100);
    p.dst = to;
    EXPECT_FALSE(host.send(std::move(p)));
  }
  EXPECT_EQ(host.packets_undeliverable(), 3u);
  sim.run();
  EXPECT_TRUE(dst.arrivals.empty());
}

TEST(RouterTest, DestinationPastTableOrInvalidIsUnroutable) {
  Simulation sim;
  RecordingNode dst(7, sim);
  Link link(sim, dst, 1e6, 0, std::make_unique<DropTailQueue>(16));
  Router router(1, "r");
  router.routing().set_route(7, &link);  // table covers nodes 0..7
  for (const NodeId to : {NodeId{2}, NodeId{8}, NodeId{1 << 20}, kInvalidNode}) {
    Packet p = make_packet(100);
    p.dst = to;
    router.receive(std::move(p));
  }
  sim.run();
  EXPECT_TRUE(dst.arrivals.empty());
  EXPECT_EQ(router.packets_forwarded(), 0u);
  EXPECT_EQ(router.packets_unroutable(), 4u);
}

TEST(RouterTest, UnroutableIsCounted) {
  Router router(1, "r");
  Packet p = make_packet(100);
  p.dst = 9;
  router.receive(std::move(p));
  EXPECT_EQ(router.packets_unroutable(), 1u);
}

// -------------------------------------------------------------- Topology

QueueFactory small_fifo() {
  return [](double) { return std::make_unique<DropTailQueue>(64); };
}

TEST(TopologyTest, ComputesRoutesAcrossChain) {
  // h1 - r1 - r2 - h2: h1's packet must traverse both routers.
  Simulation sim;
  Topology topo(sim);
  Host& h1 = topo.add_host("h1");
  Router& r1 = topo.add_router("r1");
  Router& r2 = topo.add_router("r2");
  Host& h2 = topo.add_host("h2");
  topo.connect(h1, r1, 1e6, from_millis(1), small_fifo());
  topo.connect(r1, r2, 1e6, from_millis(1), small_fifo());
  topo.connect(r2, h2, 1e6, from_millis(1), small_fifo());
  topo.compute_routes();

  CountingAgent sink;
  h2.register_agent(1, &sink);
  Packet p = make_packet(125);  // 1 ms at 1 mb/s
  p.flow = 1;
  p.dst = h2.id();
  EXPECT_TRUE(h1.send(std::move(p)));
  sim.run();
  EXPECT_EQ(sink.count, 1);
  // 3 hops x (1 ms serialization + 1 ms propagation) = 6 ms.
  EXPECT_EQ(sim.now(), from_millis(6));
}

TEST(TopologyTest, ReverseRouteWorks) {
  Simulation sim;
  Topology topo(sim);
  Host& h1 = topo.add_host("h1");
  Router& r1 = topo.add_router("r1");
  Host& h2 = topo.add_host("h2");
  topo.connect(h1, r1, 1e6, 0, small_fifo());
  topo.connect(r1, h2, 1e6, 0, small_fifo());
  topo.compute_routes();

  CountingAgent sink1;
  h1.register_agent(1, &sink1);
  Packet p = make_packet(100);
  p.flow = 1;
  p.dst = h1.id();
  EXPECT_TRUE(h2.send(std::move(p)));
  sim.run();
  EXPECT_EQ(sink1.count, 1);
}

TEST(TopologyTest, DumbbellAllPairsReachable) {
  Simulation sim;
  Topology topo(sim);
  Router& r1 = topo.add_router("r1");
  Router& r2 = topo.add_router("r2");
  topo.connect(r1, r2, 1e6, 0, small_fifo());
  std::vector<Host*> left, right;
  for (int i = 0; i < 3; ++i) {
    Host& l = topo.add_host("l");
    Host& r = topo.add_host("r");
    topo.connect(l, r1, 1e6, 0, small_fifo());
    topo.connect(r2, r, 1e6, 0, small_fifo());
    left.push_back(&l);
    right.push_back(&r);
  }
  topo.compute_routes();

  std::vector<CountingAgent> sinks(3);
  for (int i = 0; i < 3; ++i) {
    right[static_cast<std::size_t>(i)]->register_agent(i, &sinks[static_cast<std::size_t>(i)]);
  }
  for (int i = 0; i < 3; ++i) {
    Packet p = make_packet(100);
    p.flow = i;
    p.dst = right[static_cast<std::size_t>(i)]->id();
    EXPECT_TRUE(left[static_cast<std::size_t>(i)]->send(std::move(p)));
  }
  sim.run();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(sinks[static_cast<std::size_t>(i)].count, 1);
  EXPECT_EQ(topo.node_count(), 8u);
  EXPECT_EQ(topo.link_count(), 14u);
}

TEST(TopologyTest, RecomputeAfterAddingLink) {
  Simulation sim;
  Topology topo(sim);
  Host& h1 = topo.add_host("h1");
  Host& h2 = topo.add_host("h2");
  topo.compute_routes();
  {
    Packet p = make_packet(100);
    p.dst = h2.id();
    EXPECT_FALSE(h1.send(std::move(p)));  // no path yet
  }
  topo.connect(h1, h2, 1e6, 0, small_fifo());
  topo.compute_routes();
  CountingAgent sink;
  h2.register_agent(0, &sink);
  Packet p = make_packet(100);
  p.flow = 0;
  p.dst = h2.id();
  EXPECT_TRUE(h1.send(std::move(p)));
  sim.run();
  EXPECT_EQ(sink.count, 1);
}

// ------------------------------------------------------------------ srTCM

TEST(SrTcmTest, ConformingTrafficStaysGreen) {
  // 1 mb/s CIR, packets offered at exactly 1 mb/s: all green.
  SrTcmMarker m(TcmConfig{1e6, 8000, 8000});
  SimTime t = 0;
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(m.mark(500, t), Color::kGreen) << "packet " << i;
    t += from_millis(4);  // 500 B at 1 mb/s
  }
}

TEST(SrTcmTest, BurstBeyondCbsGoesYellowThenRed) {
  // All packets at t=0: CBS covers the first 16, EBS the next 16, rest red.
  SrTcmMarker m(TcmConfig{1e6, 8000, 8000});
  int green = 0;
  int yellow = 0;
  int red = 0;
  for (int i = 0; i < 48; ++i) {
    switch (m.mark(500, 0)) {
      case Color::kGreen: ++green; break;
      case Color::kYellow: ++yellow; break;
      default: ++red; break;
    }
  }
  EXPECT_EQ(green, 16);
  EXPECT_EQ(yellow, 16);
  EXPECT_EQ(red, 16);
}

TEST(SrTcmTest, SustainedOverrateSplitsAtCir) {
  // Offer 2 mb/s against a 1 mb/s CIR for a long window: ~half green, the
  // excess bucket refills only from committed overflow (rarely), so the
  // rest is almost all red.
  SrTcmMarker m(TcmConfig{1e6, 4000, 4000});
  int green = 0;
  SimTime t = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (m.mark(500, t) == Color::kGreen) ++green;
    t += from_millis(2);  // 500 B at 2 mb/s
  }
  EXPECT_NEAR(static_cast<double>(green) / n, 0.5, 0.02);
}

TEST(SrTcmTest, BucketsRecoverWhenIdle) {
  SrTcmMarker m(TcmConfig{1e6, 8000, 8000});
  for (int i = 0; i < 48; ++i) m.mark(500, 0);  // drain both buckets
  EXPECT_EQ(m.mark(500, 0), Color::kRed);
  // 128 ms at 1 mb/s refills 16 kB: committed fills to 8 kB first, the
  // overflow fills excess to its 8 kB cap; the green mark spends committed.
  EXPECT_EQ(m.mark(500, from_millis(128)), Color::kGreen);
  EXPECT_NEAR(m.excess_tokens(), 8000.0, 1.0);
  EXPECT_NEAR(m.committed_tokens(), 7500.0, 1.0);
}

TEST(SrTcmTest, SetCirChangesRefillRate) {
  SrTcmMarker m(TcmConfig{1e6, 8000, 8000});
  for (int i = 0; i < 48; ++i) m.mark(500, 0);
  m.set_cir(8e6);
  // 8 ms at 8 mb/s refills 8 kB into the committed bucket.
  EXPECT_EQ(m.mark(500, from_millis(8)), Color::kGreen);
}

}  // namespace
}  // namespace pels
