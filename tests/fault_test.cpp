// Tests for src/fault: loss-process statistics and determinism, fault-plan
// validation, and the injector's link-level effects (flaps, brown-outs,
// blackouts). Scenario-level degradation behavior lives in robustness_test.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/loss_process.h"
#include "net/link.h"
#include "net/node.h"
#include "pels/pels_sink.h"
#include "queue/drop_tail.h"
#include "queue/pels_queue.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "video/rd_model.h"

namespace pels {
namespace {

// ------------------------------------------------------- Gilbert–Elliott

TEST(GilbertElliottTest, ValidateRejectsBadParameters) {
  GilbertElliottConfig ok;
  EXPECT_NO_THROW(ok.validate());

  GilbertElliottConfig c = ok;
  c.p_good_to_bad = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ok;
  c.p_bad_to_good = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ok;
  c.loss_bad = 1.2;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = ok;
  c.loss_good = -0.1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(GilbertElliottTest, StationaryLossMatchesTheory) {
  // pi_bad = 0.01 / 0.21, loss_bad = 1: long-run loss ~ 4.76%.
  GilbertElliottConfig cfg;
  cfg.p_good_to_bad = 0.01;
  cfg.p_bad_to_good = 0.20;
  cfg.loss_good = 0.0;
  cfg.loss_bad = 1.0;
  GilbertElliottLoss ge(cfg, Rng(42, 7));
  const int n = 200'000;
  int lost = 0;
  for (int i = 0; i < n; ++i) lost += ge.lost(i) ? 1 : 0;
  const double empirical = static_cast<double>(lost) / n;
  EXPECT_NEAR(empirical, cfg.stationary_loss(), cfg.stationary_loss() * 0.1);
}

TEST(GilbertElliottTest, MeanBurstLengthMatchesTheory) {
  // With loss_bad = 1 and loss_good = 0, loss runs ARE bad-state sojourns:
  // geometric with mean 1 / p_bad_to_good = 5 packets.
  GilbertElliottConfig cfg;
  cfg.p_good_to_bad = 0.01;
  cfg.p_bad_to_good = 0.20;
  cfg.loss_good = 0.0;
  cfg.loss_bad = 1.0;
  GilbertElliottLoss ge(cfg, Rng(42, 8));
  int bursts = 0;
  std::int64_t lost = 0;
  bool in_burst = false;
  for (int i = 0; i < 500'000; ++i) {
    const bool l = ge.lost(i);
    if (l) {
      ++lost;
      if (!in_burst) ++bursts;
    }
    in_burst = l;
  }
  ASSERT_GT(bursts, 100);
  const double mean_burst = static_cast<double>(lost) / bursts;
  EXPECT_NEAR(mean_burst, 1.0 / cfg.p_bad_to_good, 0.15 * (1.0 / cfg.p_bad_to_good));
}

TEST(GilbertElliottTest, BurstsAreBurstierThanBernoulli) {
  // Same long-run loss rate, very different clustering: the GE chain's
  // lost packets must neighbor other lost packets far more often than an
  // i.i.d. process at the same rate.
  GilbertElliottConfig cfg;
  cfg.p_good_to_bad = 0.01;
  cfg.p_bad_to_good = 0.20;
  cfg.loss_good = 0.0;
  cfg.loss_bad = 1.0;
  GilbertElliottLoss ge(cfg, Rng(9, 1));
  Rng iid_rng(9, 2);
  const auto iid = [&iid_rng, p = cfg.stationary_loss()](SimTime) {
    return iid_rng.bernoulli(p);
  };
  const int n = 200'000;
  auto adjacency = [n](auto process) {
    int pairs = 0;
    bool prev = false;
    for (int i = 0; i < n; ++i) {
      const bool l = process(i);
      if (l && prev) ++pairs;
      prev = l;
    }
    return pairs;
  };
  EXPECT_GT(adjacency(ge), 5 * adjacency(iid));
}

TEST(GilbertElliottTest, DeterministicGivenSeed) {
  GilbertElliottConfig cfg;
  GilbertElliottLoss a(cfg, Rng(123, 5));
  GilbertElliottLoss b(cfg, Rng(123, 5));
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(a.lost(i), b.lost(i)) << "diverged at draw " << i;
  }
}

// --------------------------------------------------------------- Blackout

TEST(BlackoutLossTest, WindowMembershipIsHalfOpen) {
  BlackoutLoss loss({{10 * kSecond, 20 * kSecond}, {30 * kSecond, 31 * kSecond}});
  EXPECT_FALSE(loss.lost(9 * kSecond));
  EXPECT_TRUE(loss.lost(10 * kSecond));
  EXPECT_TRUE(loss.lost(15 * kSecond));
  EXPECT_FALSE(loss.lost(20 * kSecond));
  EXPECT_TRUE(loss.lost(30 * kSecond + kSecond / 2));
  EXPECT_FALSE(loss.lost(31 * kSecond));
}

// -------------------------------------------------------------- FaultPlan

TEST(FaultPlanTest, EmptyPlanIsEmptyAndValid) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_NO_THROW(plan.validate());
  plan.burst_corruption = GilbertElliottConfig{};
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlanTest, ValidateRejectsNonsense) {
  {
    FaultPlan p;
    p.link_flaps.push_back({5 * kSecond, 5 * kSecond});  // empty window
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.brownouts.push_back({1 * kSecond, 2 * kSecond, 0.0});  // dead link != brown-out
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.brownouts.push_back({1 * kSecond, 2 * kSecond, 1.5});  // not a degradation
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.router_restarts.push_back({-1});
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.ack_blackouts.push_back({3 * kSecond, 2 * kSecond});  // until < at
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    FaultPlan p;
    GilbertElliottConfig ge;
    ge.p_bad_to_good = 0.0;
    p.burst_corruption = ge;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
}

// ------------------------------------------------------- link-level faults

class RecordingNode : public Node {
 public:
  RecordingNode(NodeId id, Simulation& sim) : Node(id, "rec"), sim_(sim) {}
  void receive(Packet&& pkt) override { arrivals.emplace_back(sim_.now(), std::move(pkt)); }
  std::vector<std::pair<SimTime, Packet>> arrivals;

 private:
  Simulation& sim_;
};

Packet make_packet(std::int32_t size) {
  Packet p;
  p.size_bytes = size;
  p.color = Color::kGreen;
  return p;
}

TEST(LinkFaultTest, FlapLosesWirePacketAndResumesOnRecovery) {
  Simulation sim;
  RecordingNode dst(0, sim);
  // 500 bytes at 4 mb/s = 1 ms serialization, no propagation delay.
  Link link(sim, dst, 4e6, 0, std::make_unique<DropTailQueue>(16));
  FaultInjector injector(sim);
  // Down mid-serialization of the first packet; up again at 10 ms.
  injector.inject_flap(link, {from_micros(500), from_millis(10)});
  sim.at(0, [&] { link.send(make_packet(500)); });       // on the wire at down-time
  sim.at(from_millis(2), [&] { link.send(make_packet(500)); });  // queued while down
  sim.run_until(from_millis(9));
  EXPECT_FALSE(link.is_up());
  EXPECT_TRUE(dst.arrivals.empty());  // carrier loss killed packet 1
  EXPECT_EQ(link.packets_corrupted(), 1u);
  sim.run_until(from_millis(20));
  EXPECT_TRUE(link.is_up());
  ASSERT_EQ(dst.arrivals.size(), 1u);
  EXPECT_EQ(dst.arrivals[0].first, from_millis(11));  // restarted at 10, 1 ms wire
}

/// A link whose queue is a real PelsQueue: 4 mb/s, half of it the PELS
/// group's capacity share.
struct PelsLink {
  explicit PelsLink(Simulation& sim) : dst(0, sim) {
    PelsQueueConfig cfg;
    cfg.link_bandwidth_bps = 4e6;
    auto q = std::make_unique<PelsQueue>(sim.scheduler(), cfg);
    queue = q.get();
    link = std::make_unique<Link>(sim, dst, 4e6, 0, std::move(q));
  }
  RecordingNode dst;
  PelsQueue* queue = nullptr;
  std::unique_ptr<Link> link;
};

TEST(LinkFaultTest, BrownoutScalesBandwidthAndRestores) {
  Simulation sim;
  PelsLink p(sim);
  ASSERT_DOUBLE_EQ(p.queue->pels_capacity_bps(), 2e6);
  FaultInjector injector(sim);
  injector.inject_brownout(*p.link, {from_millis(1), from_millis(10), 0.25}, p.queue);
  sim.run_until(from_millis(5));
  EXPECT_DOUBLE_EQ(p.link->bandwidth_bps(), 1e6);
  EXPECT_DOUBLE_EQ(p.queue->pels_capacity_bps(), 0.5e6);  // the share follows the wire
  sim.run_until(from_millis(11));
  EXPECT_DOUBLE_EQ(p.link->bandwidth_bps(), 4e6);
  EXPECT_DOUBLE_EQ(p.queue->pels_capacity_bps(), 2e6);
}

TEST(LinkFaultTest, BrownoutWithoutQueueScalesTheWireAlone) {
  Simulation sim;
  PelsLink p(sim);
  FaultInjector(sim).inject_brownout(*p.link, {from_millis(1), from_millis(10), 0.25});
  sim.run_until(from_millis(5));
  EXPECT_DOUBLE_EQ(p.link->bandwidth_bps(), 1e6);
  EXPECT_DOUBLE_EQ(p.queue->pels_capacity_bps(), 2e6);
}

TEST(LinkFaultTest, NestedBrownoutsUnwindToTheOriginalRate) {
  // Each window restores the rate its own start edge saw, so an inner window
  // hands back the outer window's rate and the outer one the original. The
  // injector is gone before the first edge: the edges carry their own state.
  Simulation sim;
  PelsLink p(sim);
  {
    FaultInjector injector(sim);
    injector.inject_brownout(*p.link, {from_millis(1), from_millis(20), 0.5}, p.queue);
    injector.inject_brownout(*p.link, {from_millis(5), from_millis(10), 0.5}, p.queue);
  }
  sim.run_until(from_millis(7));
  EXPECT_DOUBLE_EQ(p.link->bandwidth_bps(), 1e6);
  EXPECT_DOUBLE_EQ(p.queue->pels_capacity_bps(), 0.5e6);
  sim.run_until(from_millis(15));
  EXPECT_DOUBLE_EQ(p.link->bandwidth_bps(), 2e6);
  EXPECT_DOUBLE_EQ(p.queue->pels_capacity_bps(), 1e6);
  sim.run_until(from_millis(25));
  EXPECT_DOUBLE_EQ(p.link->bandwidth_bps(), 4e6);
  EXPECT_DOUBLE_EQ(p.queue->pels_capacity_bps(), 2e6);
}

TEST(LinkFaultTest, BlackoutWindowDropsEveryWirePacket) {
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, 0, std::make_unique<DropTailQueue>(64));
  FaultInjector injector(sim);
  injector.inject_blackouts(link, {{from_millis(10), from_millis(20)}});
  // One packet per 2 ms for 30 ms: those whose serialization *ends* inside
  // [10, 20) ms are corrupted on the wire.
  for (int i = 0; i < 15; ++i) {
    sim.at(from_millis(2 * i), [&] { link.send(make_packet(500)); });
  }
  sim.run();
  EXPECT_EQ(link.packets_corrupted(), 5u);   // ends at 11, 13, 15, 17, 19 ms
  EXPECT_EQ(dst.arrivals.size(), 10u);
}

TEST(LinkFaultTest, CorruptionProcessesComposeWithoutShortCircuit) {
  // Both processes must see every packet: a blackout covering the whole run
  // may not starve the GE chain of draws, or replays that add/remove one
  // process would perturb the other's state sequence.
  Simulation sim;
  RecordingNode dst(0, sim);
  Link link(sim, dst, 4e6, 0, std::make_unique<DropTailQueue>(64));
  int ge_draws = 0;
  link.add_corruption([&](SimTime) { ++ge_draws; return false; });
  link.add_corruption(BlackoutLoss({{0, kSecond}}));
  for (int i = 0; i < 10; ++i) {
    sim.at(from_millis(2 * i), [&] { link.send(make_packet(500)); });
  }
  sim.run();
  EXPECT_EQ(ge_draws, 10);
  EXPECT_EQ(dst.arrivals.size(), 0u);
  EXPECT_EQ(link.packets_corrupted(), 10u);
}

// ------------------------------------------------- sink duplicate tolerance

TEST(SinkFaultTest, DuplicateDataPacketsAreCountedOnce) {
  Simulation sim;
  Host host(1, "sink-host");
  VideoConfig video;
  RdModel rd{RdModelConfig{}};
  PelsSink sink(sim, host, /*flow=*/0, /*src_node=*/2, video, rd);

  Packet base;
  base.flow = 0;
  base.seq = 1;
  base.uid = 101;
  base.size_bytes = 500;
  base.color = Color::kGreen;
  base.frame_id = 0;
  base.frame_offset = -500;  // base-layer bytes
  sink.on_packet(base);
  sink.on_packet(base);  // duplicated in flight

  Packet fgs;
  fgs.flow = 0;
  fgs.seq = 2;
  fgs.uid = 102;
  fgs.size_bytes = 500;
  fgs.color = Color::kYellow;
  fgs.frame_id = 0;
  fgs.frame_offset = 0;
  sink.on_packet(fgs);
  sink.on_packet(fgs);
  sink.on_packet(fgs);

  EXPECT_EQ(sink.packets_received(Color::kGreen), 1u);
  EXPECT_EQ(sink.packets_received(Color::kYellow), 1u);
  EXPECT_EQ(sink.fgs_bytes_received(), 500u);
  EXPECT_EQ(sink.duplicates_ignored(), 3u);

  sink.finalize_all();
  ASSERT_EQ(sink.frame_qualities().size(), 1u);
  EXPECT_EQ(sink.frame_qualities()[0].received_fgs_bytes, 500);
}

TEST(SinkFaultTest, ReorderedPacketsOfOpenFramesStillAssemble) {
  // Interleave two frames' packets out of order; both must assemble with
  // their own bytes, and a duplicate arriving after the reorder still only
  // counts once.
  Simulation sim;
  Host host(1, "sink-host");
  VideoConfig video;
  RdModel rd{RdModelConfig{}};
  PelsSink sink(sim, host, 0, 2, video, rd);

  auto pkt = [&video](std::uint64_t uid, std::int64_t frame, std::int64_t offset,
                      Color color) {
    Packet p;
    p.flow = 0;
    p.uid = uid;
    // A full base layer in one packet, so base_ok is decided by delivery
    // alone; FGS chunks stay packet-sized.
    p.size_bytes = offset < 0 ? static_cast<std::int32_t>(video.base_layer_bytes) : 500;
    p.color = color;
    p.frame_id = frame;
    p.frame_offset = static_cast<std::int32_t>(offset);
    return p;
  };
  sink.on_packet(pkt(1, 0, -500, Color::kGreen));
  sink.on_packet(pkt(4, 1, 0, Color::kYellow));    // frame 1 before frame 0 done
  sink.on_packet(pkt(2, 0, 0, Color::kYellow));
  sink.on_packet(pkt(3, 1, -500, Color::kGreen));  // frame 1 base after its FGS
  sink.on_packet(pkt(2, 0, 0, Color::kYellow));    // late duplicate

  EXPECT_EQ(sink.duplicates_ignored(), 1u);
  sink.finalize_all();
  ASSERT_EQ(sink.frame_qualities().size(), 2u);
  for (const auto& q : sink.frame_qualities()) {
    EXPECT_TRUE(q.base_ok);
    EXPECT_EQ(q.received_fgs_bytes, 500);
  }
}

// ------------------------------------------------------ sink frame window
//
// PelsSink keeps its open frames in a ring recycled over the finalize window.
// These cases pin which frames it finalizes, in what order and with what
// FrameQuality, across the window's edge cases; the expected strings were
// recorded from the earlier map-plus-hash-set implementation.

class SinkWindowTest : public ::testing::Test {
 protected:
  // Delivers one packet at `t_ms` (the clock only moves forward).
  void deliver(double t_ms, std::uint64_t uid, std::int64_t frame, std::int32_t offset,
               std::int32_t size, Color color) {
    sim_.run_until(from_seconds(t_ms / 1e3));
    Packet p;
    p.flow = 0;
    p.uid = uid;
    p.seq = uid;
    p.size_bytes = size;
    p.color = color;
    p.frame_id = frame;
    p.frame_offset = offset;
    p.created_at = sim_.now() - from_millis(5);
    sink_.on_packet(p);
  }

  // A whole base layer plus `yellow` yellow and `red` red 500-byte FGS
  // packets of `frame`, the red ones 30 ms behind the rest.
  void frame(double t_ms, std::int64_t frame, int yellow, int red) {
    deliver(t_ms, next_uid_++, frame, -1, static_cast<std::int32_t>(video_.base_layer_bytes),
            Color::kGreen);
    for (int i = 0; i < yellow; ++i)
      deliver(t_ms, next_uid_++, frame, 500 * i, 500, Color::kYellow);
    for (int i = 0; i < red; ++i)
      deliver(t_ms + 30, next_uid_++, frame, 500 * (yellow + i), 500, Color::kRed);
  }

  // One line per finalized frame: id, base_ok, useful and received FGS
  // bytes, PSNR (exact) and completion time.
  std::string finalized() const {
    std::string out;
    char line[160];
    for (const FrameQuality& q : sink_.frame_qualities()) {
      std::snprintf(line, sizeof line, "%lld %d %lld %lld %.17g %lld\n",
                    static_cast<long long>(q.frame_id), q.base_ok ? 1 : 0,
                    static_cast<long long>(q.useful_fgs_bytes),
                    static_cast<long long>(q.received_fgs_bytes), q.psnr_db,
                    static_cast<long long>(q.completed_at));
      out += line;
    }
    return out;
  }

  Simulation sim_;
  Host host_{1, "sink-host"};
  VideoConfig video_;
  RdModel rd_{RdModelConfig{}};
  PelsSink sink_{sim_, host_, /*flow=*/0, /*src_node=*/2, video_, rd_};
  std::uint64_t next_uid_ = 1;
};

TEST_F(SinkWindowTest, BlackoutJumpFinalizesSkippedFramesInOrder) {
  for (std::int64_t f = 0; f < 6; ++f) frame(100.0 * static_cast<double>(f), f, 3, 2);
  // A chunk past a gap: frame 5's useful prefix stops before it.
  deliver(650, next_uid_++, 5, 3500, 500, Color::kYellow);
  // Blackout: the next frame seen is far more than the finalize lag ahead,
  // which closes every open frame at once.
  frame(9000, 5 + PelsSink::kFinalizeLagFrames + 20, 2, 1);
  EXPECT_EQ(sink_.frame_qualities().size(), 6u);
  // An older frame past the new deadline is scored on its own, at once (its
  // base packet; the yellow one behind it is then already too late)...
  frame(9100, 20, 1, 0);
  EXPECT_EQ(sink_.frame_qualities().size(), 7u);
  // ...while one inside the window stays open for more packets.
  frame(9200, 50, 1, 1);
  deliver(9300, next_uid_++, 50, -1, 100, Color::kGreen);
  EXPECT_EQ(sink_.frame_qualities().size(), 7u);
  sink_.finalize_all();
  EXPECT_EQ(finalized(), R"(0 1 2500 2500 31.071732677229353 0
1 1 2500 2500 31.232416133515823 100000000
2 1 2500 2500 31.502317503992106 200000000
3 1 2500 2500 31.803072316893537 300000000
4 1 2500 2500 31.032715222892442 400000000
5 1 2500 3000 31.195936480954547 650000000
20 1 0 0 29.666442413326529 9100000000
50 1 1000 1000 29.072622932714623 9300000000
65 1 1500 1500 30.247088218499758 9000000000
)");
}

TEST_F(SinkWindowTest, SequenceWrapKeepsPassesApart) {
  // The source loops its 400-frame sequence: frame 0 of the second pass is
  // unwrapped past 399, and late red chunks of 398/399 still land in their
  // own first-pass frames.
  for (std::int64_t f = 390; f < 400; ++f)
    frame(100.0 * static_cast<double>(f - 390), f, 2, 2);
  for (std::int64_t f = 0; f < 6; ++f) {
    frame(1000.0 + 100.0 * static_cast<double>(f), f, 1 + f % 3, 1);
    if (f == 3) {
      deliver(1340, next_uid_++, 398, 2000, 500, Color::kRed);
      deliver(1340, next_uid_++, 399, 1500, 500, Color::kRed);
    }
  }
  // Pushes the first pass past the deadline; the rest close at the end.
  frame(1600, 32, 1, 0);
  EXPECT_EQ(sink_.frame_qualities().size(), 3u);
  sink_.finalize_all();
  EXPECT_EQ(sink_.frame_qualities().size(), 17u);
  EXPECT_EQ(finalized(), R"(390 1 2000 2000 29.760162842465238 0
391 1 2000 2000 29.095607226946726 100000000
392 1 2000 2000 29.888567156745584 200000000
393 1 2000 2000 30.112911099532667 300000000
394 1 2000 2000 29.667975332739633 400000000
395 1 2000 2000 29.116864158666726 500000000
396 1 2000 2000 30.307132792219878 600000000
397 1 2000 2000 28.732975670388161 700000000
398 1 2500 2500 30.641059910198472 800000000
399 1 2000 2500 29.288239246652044 900000000
0 1 1000 1000 30.004812743226921 1000000000
1 1 1500 1500 30.551043386591545 1100000000
2 1 2000 2000 31.174902759283 1200000000
3 1 1000 1000 30.729068754630806 1300000000
4 1 1500 1500 30.346848706052175 1400000000
5 1 2000 2000 30.866381545899163 1500000000
32 1 500 500 28.806720954365773 1600000000
)");
}

TEST_F(SinkWindowTest, UidReusedInRecycledSlotIsNotADuplicate) {
  // Frame 0 and frame kFinalizeLagFrames share a ring slot. A uid absorbed
  // by frame 0 and seen again in the later frame (a misbehaving source; uids
  // are only unique while a frame is open) must count, not be dropped.
  deliver(0, 7, 0, -1, static_cast<std::int32_t>(video_.base_layer_bytes), Color::kGreen);
  deliver(0, 8, 0, 0, 500, Color::kYellow);
  deliver(0, 8, 0, 0, 500, Color::kYellow);  // a real duplicate
  EXPECT_EQ(sink_.duplicates_ignored(), 1u);
  frame(4000, PelsSink::kFinalizeLagFrames, 1, 0);
  EXPECT_EQ(sink_.frame_qualities().size(), 1u);  // frame 0 closed, slot free
  deliver(4100, 8, PelsSink::kFinalizeLagFrames, 500, 500, Color::kYellow);
  EXPECT_EQ(sink_.duplicates_ignored(), 1u);
  deliver(4100, 8, PelsSink::kFinalizeLagFrames, 500, 500, Color::kYellow);
  EXPECT_EQ(sink_.duplicates_ignored(), 2u);
  sink_.finalize_all();
  EXPECT_EQ(finalized(), R"(0 1 500 500 29.577731045702297 0
40 1 1000 1000 29.545651733016062 4100000000
)");
}

}  // namespace
}  // namespace pels
