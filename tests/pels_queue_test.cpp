// Tests for the PELS composite router queue, the feedback meter (eq. (11)),
// and the best-effort comparator queue.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "queue/best_effort.h"
#include "queue/feedback_meter.h"
#include "queue/pels_queue.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "pop_packet.h"

namespace pels {
namespace {

Packet make_packet(std::int32_t size, Color color, std::uint64_t seq = 0) {
  Packet p;
  p.size_bytes = size;
  p.color = color;
  p.seq = seq;
  return p;
}

PelsQueueConfig test_config() {
  PelsQueueConfig cfg;
  cfg.router_id = 1;
  cfg.link_bandwidth_bps = 4e6;
  cfg.pels_weight = 0.5;
  cfg.internet_weight = 0.5;
  cfg.feedback_interval = from_millis(30);
  return cfg;
}

// ---------------------------------------------------------- FeedbackMeter

TEST(FeedbackMeterTest, ComputesLossFromOverload) {
  FeedbackMeter m(1, 2e6, from_millis(100));
  // 30,000 bytes in 100 ms = 2.4 mb/s against 2 mb/s: p = 0.4/2.4 = 1/6.
  m.add_bytes(30'000, true);
  m.close_interval();
  EXPECT_NEAR(m.loss(), (2.4e6 - 2e6) / 2.4e6, 1e-9);
  EXPECT_EQ(m.epoch(), 1u);
}

TEST(FeedbackMeterTest, RejectsNegativeRouterId) {
  // Sources index their per-router epoch filter by id.
  EXPECT_THROW(FeedbackMeter(-1, 2e6, from_millis(100)), std::invalid_argument);
  EXPECT_NO_THROW(FeedbackMeter(0, 2e6, from_millis(100)));
}

TEST(FeedbackMeterTest, NegativeLossWhenUnderutilized) {
  FeedbackMeter m(1, 2e6, from_millis(100));
  // 12,500 bytes in 100 ms = 1 mb/s against 2 mb/s: p = -1.
  m.add_bytes(12'500, true);
  m.close_interval();
  EXPECT_NEAR(m.loss(), -1.0, 1e-9);
}

TEST(FeedbackMeterTest, FloorsAtConfiguredBoundWhenIdle) {
  FeedbackMeter m(1, 2e6, from_millis(100), -20.0);
  m.close_interval();
  EXPECT_DOUBLE_EQ(m.loss(), -20.0);
}

TEST(FeedbackMeterTest, IntervalBytesResetEachEpoch) {
  FeedbackMeter m(1, 2e6, from_millis(100));
  m.add_bytes(50'000, true);
  m.close_interval();
  const double first = m.loss();
  m.close_interval();  // no bytes this interval
  EXPECT_LT(m.loss(), first);
  EXPECT_EQ(m.epoch(), 2u);
}

TEST(FeedbackMeterTest, StampOnlyAfterFirstInterval) {
  FeedbackMeter m(7, 2e6, from_millis(100));
  Packet p = make_packet(500, Color::kYellow);
  m.stamp(p);
  EXPECT_FALSE(p.feedback.valid);
  m.add_bytes(30'000, true);
  m.close_interval();
  m.stamp(p);
  EXPECT_TRUE(p.feedback.valid);
  EXPECT_EQ(p.feedback.router_id, 7);
  EXPECT_EQ(p.feedback.epoch, 1u);
}

TEST(FeedbackMeterTest, StampRespectsMaxMinOverride) {
  FeedbackMeter m(7, 2e6, from_millis(100));
  m.add_bytes(30'000, true);  // p = 1/6
  m.close_interval();
  Packet p = make_packet(500, Color::kYellow);
  p.feedback.maybe_override(3, 99, 0.5, 0.6);  // more congested upstream router
  m.stamp(p);
  EXPECT_EQ(p.feedback.router_id, 3);  // keeps the larger loss
  p.feedback = {};
  p.feedback.maybe_override(3, 99, 0.01, 0.02);  // less congested upstream
  m.stamp(p);
  EXPECT_EQ(p.feedback.router_id, 7);  // this router's label wins
}

TEST(FeedbackMeterTest, InjectedFgsLossRevertsToEstimateAtNextClose) {
  // Ordering contract of set_fgs_loss: a non-sticky injection (the default)
  // drives the stamped labels for the epoch it was reported in and reverts
  // to the overshoot estimate at the next close_interval().
  FeedbackMeter m(1, 2e6, from_millis(100));
  m.add_bytes(30'000, true);
  m.close_interval();
  m.set_fgs_loss(0.42);
  EXPECT_FALSE(m.fgs_loss_is_sticky());
  EXPECT_DOUBLE_EQ(m.fgs_loss(), 0.42);
  Packet p = make_packet(500, Color::kYellow);
  m.stamp(p);
  EXPECT_DOUBLE_EQ(p.feedback.fgs_loss, 0.42);
  m.add_bytes(30'000, true);
  m.close_interval();
  EXPECT_DOUBLE_EQ(m.fgs_loss(), m.fgs_loss_estimate());
  EXPECT_NEAR(m.fgs_loss(), (2.4e6 - 2e6) / 2.4e6, 1e-9);  // not 0.42
}

TEST(FeedbackMeterTest, StickyInjectedFgsLossSurvivesCloses) {
  FeedbackMeter m(1, 2e6, from_millis(100));
  m.add_bytes(30'000, true);
  m.close_interval();
  m.set_fgs_loss(0.42, /*sticky=*/true);
  EXPECT_TRUE(m.fgs_loss_is_sticky());
  for (int i = 0; i < 3; ++i) {
    m.add_bytes(30'000, true);
    m.close_interval();
    EXPECT_DOUBLE_EQ(m.fgs_loss(), 0.42);
  }
  // The estimate keeps tracking the rates underneath the sticky value.
  EXPECT_NEAR(m.fgs_loss_estimate(), (2.4e6 - 2e6) / 2.4e6, 1e-9);
  // The next injection replaces the value and resets the sticky mode.
  m.set_fgs_loss(0.10);
  EXPECT_DOUBLE_EQ(m.fgs_loss(), 0.10);
  EXPECT_FALSE(m.fgs_loss_is_sticky());
  m.add_bytes(30'000, true);
  m.close_interval();
  EXPECT_DOUBLE_EQ(m.fgs_loss(), m.fgs_loss_estimate());
}

// -------------------------------------------------------------- PelsQueue

TEST(PelsQueueTest, CapacityShareFollowsWeights) {
  Simulation sim;
  PelsQueueConfig cfg = test_config();
  PelsQueue q(sim.scheduler(), cfg);
  EXPECT_DOUBLE_EQ(q.pels_capacity_bps(), 2e6);
  cfg.pels_weight = 3.0;
  cfg.internet_weight = 1.0;
  PelsQueue q2(sim.scheduler(), cfg);
  EXPECT_DOUBLE_EQ(q2.pels_capacity_bps(), 3e6);
}

TEST(PelsQueueTest, StrictPriorityAcrossColors) {
  Simulation sim;
  PelsQueue q(sim.scheduler(), test_config());
  q.enqueue(make_packet(500, Color::kRed, 1));
  q.enqueue(make_packet(500, Color::kYellow, 2));
  q.enqueue(make_packet(500, Color::kGreen, 3));
  EXPECT_EQ(pop_packet(q)->color, Color::kGreen);
  EXPECT_EQ(pop_packet(q)->color, Color::kYellow);
  EXPECT_EQ(pop_packet(q)->color, Color::kRed);
}

TEST(PelsQueueTest, InternetTrafficSeparatedFromPels) {
  Simulation sim;
  PelsQueue q(sim.scheduler(), test_config());
  for (int i = 0; i < 10; ++i) q.enqueue(make_packet(500, Color::kGreen));
  for (int i = 0; i < 10; ++i) q.enqueue(make_packet(500, Color::kInternet));
  // Equal WRR weights: service alternates between the classes in byte terms.
  int green = 0;
  int internet = 0;
  for (int i = 0; i < 10; ++i) {
    const auto c = pop_packet(q)->color;
    green += c == Color::kGreen;
    internet += c == Color::kInternet;
  }
  EXPECT_NEAR(green, 5, 2);
  EXPECT_NEAR(internet, 5, 2);
}

TEST(PelsQueueTest, RedBandOverflowsFirst) {
  Simulation sim;
  PelsQueueConfig cfg = test_config();
  cfg.green_limit = 10;
  cfg.yellow_limit = 10;
  cfg.red_limit = 2;
  PelsQueue q(sim.scheduler(), cfg);
  for (int i = 0; i < 5; ++i) {
    q.enqueue(make_packet(500, Color::kGreen));
    q.enqueue(make_packet(500, Color::kYellow));
    q.enqueue(make_packet(500, Color::kRed));
  }
  const auto& c = q.counters();
  EXPECT_EQ(c.drops[static_cast<std::size_t>(Color::kRed)], 3u);
  EXPECT_EQ(c.drops[static_cast<std::size_t>(Color::kYellow)], 0u);
  EXPECT_EQ(c.drops[static_cast<std::size_t>(Color::kGreen)], 0u);
}

TEST(PelsQueueTest, FeedbackEpochAdvancesWithTimer) {
  Simulation sim;
  PelsQueue q(sim.scheduler(), test_config());
  EXPECT_EQ(q.epoch(), 0u);
  sim.run_until(from_millis(95));
  EXPECT_EQ(q.epoch(), 3u);  // intervals close at 30, 60, 90 ms
}

TEST(PelsQueueTest, ConfigValidationRejectsNonsense) {
  auto expect_throws = [](PelsQueueConfig cfg) {
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    Simulation sim;
    EXPECT_THROW(PelsQueue(sim.scheduler(), cfg), std::invalid_argument);
  };
  {
    PelsQueueConfig cfg = test_config();
    cfg.link_bandwidth_bps = 0.0;
    expect_throws(cfg);
  }
  {
    PelsQueueConfig cfg = test_config();
    cfg.pels_weight = -1.0;
    expect_throws(cfg);
  }
  {
    PelsQueueConfig cfg = test_config();
    cfg.feedback_interval = 0;
    expect_throws(cfg);
  }
  {
    PelsQueueConfig cfg = test_config();
    cfg.loss_ceiling = 1.5;
    expect_throws(cfg);
  }
  {
    PelsQueueConfig cfg = test_config();
    cfg.loss_floor = cfg.loss_ceiling;  // floor must stay below ceiling
    expect_throws(cfg);
  }
  EXPECT_NO_THROW(test_config().validate());
}

TEST(PelsQueueTest, RestartResetsEpochButKeepsQueuedPackets) {
  // Router restart: the control plane (meter epoch, counters, rate
  // estimates) reboots, but queued packets survive — interface buffers
  // outlive a routing-daemon restart. Stamping resumes at epoch 1, the
  // backward jump consumers must tolerate.
  Simulation sim;
  PelsQueue q(sim.scheduler(), test_config());
  sim.run_until(from_millis(1));
  for (int i = 0; i < 36; ++i) q.enqueue(make_packet(500, Color::kYellow));
  sim.run_until(from_millis(95));
  EXPECT_EQ(q.epoch(), 3u);
  const std::size_t backlog = q.packet_count();
  ASSERT_GT(backlog, 0u);
  q.restart();
  EXPECT_EQ(q.epoch(), 0u);
  EXPECT_EQ(q.packet_count(), backlog);  // data plane untouched
  // No stamping until the first post-restart interval closes...
  auto pkt = pop_packet(q);
  ASSERT_TRUE(pkt.has_value());
  EXPECT_FALSE(pkt->feedback.valid);
  // ...then labels resume from epoch 1.
  sim.run_until(from_millis(125));
  EXPECT_EQ(q.epoch(), 1u);
  pkt = pop_packet(q);
  ASSERT_TRUE(pkt.has_value());
  EXPECT_TRUE(pkt->feedback.valid);
  EXPECT_EQ(pkt->feedback.epoch, 1u);
}

TEST(PelsQueueTest, DepartingPelsPacketsAreStamped) {
  Simulation sim;
  PelsQueue q(sim.scheduler(), test_config());
  // Offer 2.4x the PELS capacity for one interval: 2 mb/s * 30 ms = 7500 B.
  sim.run_until(from_millis(1));
  for (int i = 0; i < 36; ++i) q.enqueue(make_packet(500, Color::kYellow));  // 18,000 B
  sim.run_until(from_millis(31));  // first interval closed
  auto pkt = pop_packet(q);
  ASSERT_TRUE(pkt.has_value());
  EXPECT_TRUE(pkt->feedback.valid);
  EXPECT_EQ(pkt->feedback.router_id, 1);
  EXPECT_EQ(pkt->feedback.epoch, 1u);
  // R = 18000 B / 30 ms = 4.8 mb/s, C = 2 mb/s: p = 2.8/4.8.
  EXPECT_NEAR(pkt->feedback.loss, 2.8 / 4.8, 1e-9);
}

TEST(PelsQueueTest, InternetPacketsNotStamped) {
  Simulation sim;
  PelsQueue q(sim.scheduler(), test_config());
  q.enqueue(make_packet(500, Color::kInternet));
  sim.run_until(from_millis(31));
  auto pkt = pop_packet(q);
  ASSERT_TRUE(pkt.has_value());
  EXPECT_FALSE(pkt->feedback.valid);
}

TEST(PelsQueueTest, AcksTravelInGreenBand) {
  Simulation sim;
  PelsQueue q(sim.scheduler(), test_config());
  q.enqueue(make_packet(500, Color::kYellow));
  q.enqueue(make_packet(40, Color::kAck));
  EXPECT_EQ(pop_packet(q)->color, Color::kAck);
}

TEST(PelsQueueTest, BandOccupancyAccessors) {
  Simulation sim;
  PelsQueue q(sim.scheduler(), test_config());
  q.enqueue(make_packet(500, Color::kGreen));
  q.enqueue(make_packet(500, Color::kYellow));
  q.enqueue(make_packet(500, Color::kYellow));
  q.enqueue(make_packet(500, Color::kRed));
  EXPECT_EQ(q.band_packet_count(0), 1u);
  EXPECT_EQ(q.band_packet_count(1), 2u);
  EXPECT_EQ(q.band_packet_count(2), 1u);
  EXPECT_EQ(q.packet_count(), 4u);
}

TEST(PelsQueueTest, DemandMeteringIncludesDroppedPackets) {
  Simulation sim;
  PelsQueueConfig cfg = test_config();
  cfg.red_limit = 1;
  PelsQueue q(sim.scheduler(), cfg);
  // 100 red packets offered in one interval; most are dropped but all must
  // count as demand (eq. (11) measures arrivals, not admissions).
  for (int i = 0; i < 100; ++i) q.enqueue(make_packet(500, Color::kRed));
  sim.run_until(from_millis(31));
  // R = 50,000 B / 30 ms = 13.33 mb/s, C = 2 mb/s: p = (13.33-2)/13.33.
  const double r = 50'000.0 * 8.0 / 0.030;
  EXPECT_NEAR(q.current_loss(), (r - 2e6) / r, 1e-9);
}

TEST(PelsQueueTest, TwoPriorityModeMergesFgsBands) {
  // QBSS-like mode: yellow and red share one FIFO band in arrival order.
  Simulation sim;
  PelsQueueConfig cfg = test_config();
  cfg.merge_fgs_bands = true;
  PelsQueue q(sim.scheduler(), cfg);
  q.enqueue(make_packet(500, Color::kRed, 1));
  q.enqueue(make_packet(500, Color::kYellow, 2));
  q.enqueue(make_packet(500, Color::kGreen, 3));
  EXPECT_EQ(pop_packet(q)->color, Color::kGreen);  // green still wins
  EXPECT_EQ(pop_packet(q)->seq, 1u);               // then FIFO: red before yellow
  EXPECT_EQ(pop_packet(q)->seq, 2u);
  EXPECT_EQ(q.band_packet_count(2), 0u);  // red band unused
}

TEST(PelsQueueTest, TwoPriorityModeDropsHitBothColors) {
  Simulation sim;
  PelsQueueConfig cfg = test_config();
  cfg.merge_fgs_bands = true;
  cfg.yellow_limit = 2;
  cfg.red_limit = 2;  // merged band capacity = 4
  PelsQueue q(sim.scheduler(), cfg);
  for (int i = 0; i < 4; ++i) {
    q.enqueue(make_packet(500, Color::kYellow));
    q.enqueue(make_packet(500, Color::kRed));
  }
  const auto& c = q.counters();
  // 8 offered into a 4-deep band: 4 dropped, split across both colours by
  // arrival order — the failure mode the third priority exists to prevent.
  EXPECT_EQ(c.total_drops(), 4u);
  EXPECT_GT(c.drops[static_cast<std::size_t>(Color::kYellow)], 0u);
  EXPECT_GT(c.drops[static_cast<std::size_t>(Color::kRed)], 0u);
}

TEST(PelsQueueTest, StickyFgsLossHoldsBetweenWindowRefreshes) {
  Simulation sim;
  PelsQueueConfig cfg = test_config();
  cfg.red_limit = 2;
  cfg.fgs_loss_window_intervals = 4;
  cfg.sticky_fgs_loss = true;
  PelsQueue q(sim.scheduler(), cfg);
  // 10 red offered, 8 dropped (red_limit = 2): drop-count p_fgs = 0.8,
  // injected when the 4-interval window closes at t = 120 ms.
  for (int i = 0; i < 10; ++i) q.enqueue(make_packet(500, Color::kRed));
  sim.run_until(from_millis(125));
  EXPECT_NEAR(q.current_fgs_loss(), 0.8, 1e-9);
  // Two more idle intervals close without an injection; sticky mode keeps
  // gamma's input pinned at the drop-count value.
  sim.run_until(from_millis(185));
  EXPECT_NEAR(q.current_fgs_loss(), 0.8, 1e-9);
}

TEST(PelsQueueTest, DefaultFgsLossRevertsToEstimateBetweenRefreshes) {
  // Same scenario without sticky_fgs_loss: the injected 0.8 drives labels
  // for the epoch it was reported in, then the responsive overshoot
  // estimate resumes (deeply negative here, since the queue went idle).
  Simulation sim;
  PelsQueueConfig cfg = test_config();
  cfg.red_limit = 2;
  cfg.fgs_loss_window_intervals = 4;
  PelsQueue q(sim.scheduler(), cfg);
  for (int i = 0; i < 10; ++i) q.enqueue(make_packet(500, Color::kRed));
  sim.run_until(from_millis(125));
  EXPECT_NEAR(q.current_fgs_loss(), 0.8, 1e-9);
  sim.run_until(from_millis(185));
  EXPECT_LT(q.current_fgs_loss(), 0.0);
}

// -------------------------------------------------------- BestEffortQueue

BestEffortQueueConfig be_config() {
  BestEffortQueueConfig cfg;
  cfg.router_id = 1;
  cfg.link_bandwidth_bps = 4e6;
  cfg.feedback_interval = from_millis(30);
  return cfg;
}

TEST(BestEffortQueueTest, NoColorPriority) {
  Simulation sim;
  BestEffortQueue q(sim.scheduler(), Rng(1), be_config());
  q.enqueue(make_packet(500, Color::kRed, 1));
  q.enqueue(make_packet(500, Color::kGreen, 2));
  // FIFO: red (arrived first) leaves first, unlike the PELS queue.
  EXPECT_EQ(pop_packet(q)->seq, 1u);
}

TEST(BestEffortQueueTest, RandomDropsTrackOverloadProbability) {
  Simulation sim;
  BestEffortQueueConfig cfg = be_config();
  cfg.video_limit = 1u << 20;  // only random drops, no tail drops
  BestEffortQueue q(sim.scheduler(), Rng(2), cfg);
  // Prime the meter with one interval at 2.5x capacity: p = 0.6.
  const int per_interval = 38;  // 19,000 B / 30 ms = 5.07 mb/s vs 2 mb/s
  for (int i = 0; i < per_interval; ++i) q.enqueue(make_packet(500, Color::kYellow));
  sim.run_until(from_millis(31));
  const double p = q.current_loss();
  ASSERT_GT(p, 0.5);
  std::uint64_t before = q.counters().drops[static_cast<std::size_t>(Color::kYellow)];
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    q.enqueue(make_packet(500, Color::kYellow));
    pop_packet(q);
  }
  const double observed =
      static_cast<double>(q.counters().drops[static_cast<std::size_t>(Color::kYellow)] -
                          before) /
      n;
  EXPECT_NEAR(observed, p, 0.05);
}

TEST(BestEffortQueueTest, BaseLayerMagicallyProtected) {
  Simulation sim;
  BestEffortQueueConfig cfg = be_config();
  cfg.video_limit = 1u << 20;
  BestEffortQueue q(sim.scheduler(), Rng(3), cfg);
  for (int i = 0; i < 100; ++i) q.enqueue(make_packet(500, Color::kYellow));
  sim.run_until(from_millis(31));
  ASSERT_GT(q.current_loss(), 0.5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(q.enqueue(make_packet(500, Color::kGreen)));
    pop_packet(q);
  }
  EXPECT_EQ(q.counters().drops[static_cast<std::size_t>(Color::kGreen)], 0u);
}

TEST(BestEffortQueueTest, ProtectionCanBeDisabled) {
  Simulation sim;
  BestEffortQueueConfig cfg = be_config();
  cfg.video_limit = 1u << 20;
  cfg.protect_base_layer = false;
  BestEffortQueue q(sim.scheduler(), Rng(4), cfg);
  for (int i = 0; i < 100; ++i) q.enqueue(make_packet(500, Color::kYellow));
  sim.run_until(from_millis(31));
  int dropped = 0;
  for (int i = 0; i < 1000; ++i) {
    if (!q.enqueue(make_packet(500, Color::kGreen))) ++dropped;
    pop_packet(q);
  }
  EXPECT_GT(dropped, 0);
}

TEST(BestEffortQueueTest, StampsFeedbackLikePels) {
  Simulation sim;
  BestEffortQueue q(sim.scheduler(), Rng(5), be_config());
  for (int i = 0; i < 38; ++i) q.enqueue(make_packet(500, Color::kYellow));
  sim.run_until(from_millis(31));
  auto pkt = pop_packet(q);
  ASSERT_TRUE(pkt.has_value());
  EXPECT_TRUE(pkt->feedback.valid);
  EXPECT_GT(pkt->feedback.loss, 0.0);
}

}  // namespace
}  // namespace pels
