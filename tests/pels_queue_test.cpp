// Tests for the PELS router queue, the feedback meter (eq. (11)), the
// best-effort comparator queue, and a pin of all three router queues'
// (PELS, best-effort, REM) exact service order and accounting.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "queue/best_effort.h"
#include "queue/feedback_meter.h"
#include "queue/pels_queue.h"
#include "queue/rem.h"
#include "telemetry/metrics.h"
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
  // Ordering contract of set_fgs_loss: the injection drives the stamped
  // labels for the epoch it was reported in and reverts to the overshoot
  // estimate at the next close_interval().
  FeedbackMeter m(1, 2e6, from_millis(100));
  m.add_bytes(30'000, true);
  m.close_interval();
  m.set_fgs_loss(0.42);
  EXPECT_DOUBLE_EQ(m.fgs_loss(), 0.42);
  Packet p = make_packet(500, Color::kYellow);
  m.stamp(p);
  EXPECT_DOUBLE_EQ(p.feedback.fgs_loss, 0.42);
  m.add_bytes(30'000, true);
  m.close_interval();
  EXPECT_DOUBLE_EQ(m.fgs_loss(), m.fgs_loss_estimate());
  EXPECT_NEAR(m.fgs_loss(), (2.4e6 - 2e6) / 2.4e6, 1e-9);  // not 0.42
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

TEST(PelsQueueTest, DefaultFgsLossRevertsToEstimateBetweenRefreshes) {
  // 10 red offered, 8 dropped (red_limit = 2): drop-count p_fgs = 0.8,
  // injected when the 4-interval window closes at t = 120 ms. It drives
  // labels for the epoch it was reported in, then the responsive overshoot
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

// ------------------------------------------- BestEffortQueueConfig checks

struct BadBestEffortField {
  const char* field;
  void (*spoil)(BestEffortQueueConfig&);
};

// Names each case by its field in test listings.
void PrintTo(const BadBestEffortField& bad, std::ostream* os) { *os << bad.field; }

class BestEffortQueueConfigTest : public ::testing::TestWithParam<BadBestEffortField> {};

TEST_P(BestEffortQueueConfigTest, RejectsFieldByName) {
  // Before validation, Release builds accepted these: a zero weight floored
  // the DRR credit at 1 byte per round and made the capacity share 0 or NaN.
  BestEffortQueueConfig cfg = be_config();
  EXPECT_NO_THROW(cfg.validate());
  GetParam().spoil(cfg);
  try {
    cfg.validate();
    ADD_FAILURE() << "validate() accepted a bad " << GetParam().field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().field), std::string::npos) << e.what();
  }
  Simulation sim;
  EXPECT_THROW(BestEffortQueue(sim.scheduler(), Rng(1), cfg), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    Fields, BestEffortQueueConfigTest,
    ::testing::Values(
        BadBestEffortField{"link_bandwidth_bps",
                           [](BestEffortQueueConfig& c) { c.link_bandwidth_bps = 0.0; }},
        BadBestEffortField{"video_weight", [](BestEffortQueueConfig& c) { c.video_weight = 0.0; }},
        BadBestEffortField{"internet_weight",
                           [](BestEffortQueueConfig& c) { c.internet_weight = -1.0; }},
        BadBestEffortField{"feedback_interval",
                           [](BestEffortQueueConfig& c) { c.feedback_interval = 0; }},
        BadBestEffortField{"video_limit", [](BestEffortQueueConfig& c) { c.video_limit = 0; }},
        BadBestEffortField{"internet_limit",
                           [](BestEffortQueueConfig& c) { c.internet_limit = 0; }},
        BadBestEffortField{"loss_ceiling", [](BestEffortQueueConfig& c) { c.loss_ceiling = 1.0; }},
        BadBestEffortField{"loss_floor", [](BestEffortQueueConfig& c) { c.loss_floor = 0.999; }},
        BadBestEffortField{"feedback_rate_ewma",
                           [](BestEffortQueueConfig& c) { c.feedback_rate_ewma = 0.0; }}));

// ------------------------------------------------- Router queue service pin
//
// One seeded random stream of enqueues and dequeues (all five colours,
// 40-1500 B) with simulated time advancing 1 ms per step, so feedback and
// price timers fire and the best-effort random drop is live. Alternating
// fill and drain phases overflow every band and also empty the queue; the
// stream ends mid-fill, so the final occupancies are non-trivial. Each
// case pins the exact outcome as a committed constant: a digest of the
// served (uid, ECN mark) sequence, every ColorCounters array the queue
// exposes, band occupancies and, for PelsQueue, both DRR credits. A change
// to any service, drop, mark or counting decision fails here.

/// Three lines: "<name> arr=.. drop=.. dep=..", "<name> arrB=..", "<name> dropB=..".
std::string describe(const char* name, const ColorCounters& c) {
  std::ostringstream os;
  const auto row = [&os](const char* field, const std::uint64_t (&v)[kNumColors]) {
    os << ' ' << field;
    for (std::size_t i = 0; i < kNumColors; ++i) os << (i == 0 ? "=" : ",") << v[i];
  };
  os << "\n  " << name;
  row("arr", c.arrivals);
  row("drop", c.drops);
  row("dep", c.departures);
  os << "\n  " << name;
  row("arrB", c.arrival_bytes);
  os << "\n  " << name;
  row("dropB", c.drop_bytes);
  return os.str();
}

constexpr Color kPinColors[] = {Color::kGreen, Color::kYellow, Color::kRed, Color::kAck};

/// Runs the stream through `q`; returns "digest=<d> served=<n>".
std::string drive_pin_stream(Simulation& sim, QueueDisc& q, std::uint64_t seed) {
  Rng rng(seed);
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a
  std::uint64_t served = 0;
  std::uint64_t uid = 0;
  for (int step = 0; step < 7250; ++step) {
    const double p_enqueue = (step / 500) % 2 == 0 ? 0.68 : 0.3;
    if (rng.bernoulli(p_enqueue)) {
      Packet p;
      p.uid = ++uid;
      // Internet at 30% so the Internet FIFO also overflows under equal
      // weights; the other four colours share the rest evenly.
      p.color = rng.bernoulli(0.3) ? Color::kInternet
                                   : kPinColors[rng.uniform_int(0, 3)];
      p.size_bytes = static_cast<std::int32_t>(rng.uniform_int(40, 1500));
      q.enqueue(std::move(p));
    } else {
      Packet out;
      if (q.dequeue(out)) {
        ++served;
        digest = (digest ^ (out.uid * 2 + (out.ecn_marked ? 1 : 0))) * 1099511628211ull;
      }
    }
    sim.run_until(sim.now() + from_millis(1));
  }
  std::ostringstream os;
  os << "digest=" << digest << " served=" << served;
  return os.str();
}

std::string pels_pin(PelsQueueConfig cfg) {
  cfg.internet_limit = 12;
  Simulation sim;
  PelsQueue q(sim.scheduler(), cfg);
  MetricsRegistry registry;
  q.register_metrics(registry, "q");
  const auto probe = [&registry](const char* name) {
    return registry.read(static_cast<std::size_t>(registry.index_of(name)));
  };
  std::ostringstream os;
  os << drive_pin_stream(sim, q, 23) << describe("all", q.counters())
     << describe("group", q.pels_group_counters())
     << describe("internet", q.internet_counters()) << "\n  bands=" << q.band_packet_count(0)
     << ',' << q.band_packet_count(1) << ',' << q.band_packet_count(2)
     << " pkts=" << q.packet_count() << " bytes=" << q.byte_count()
     << " credit=" << probe("q.wrr_pels_credit") << ',' << probe("q.wrr_internet_credit")
     << " marks=" << q.ecn_marks();
  return os.str();
}

std::string best_effort_pin(bool protect_base_layer) {
  Simulation sim;
  BestEffortQueueConfig cfg = be_config();
  cfg.video_limit = 60;
  cfg.internet_limit = 12;
  cfg.protect_base_layer = protect_base_layer;
  BestEffortQueue q(sim.scheduler(), Rng(7), cfg);
  std::ostringstream os;
  os << drive_pin_stream(sim, q, 29) << describe("all", q.counters())
     << describe("video", q.video_counters())
     << describe("internet", q.internet_counters()) << "\n  pkts=" << q.packet_count()
     << " bytes=" << q.byte_count();
  return os.str();
}

std::string rem_pin() {
  Simulation sim;
  RemQueueConfig cfg;
  cfg.link_bandwidth_bps = 4e6;
  cfg.video_limit = 80;
  cfg.internet_limit = 12;
  RemQueue q(sim.scheduler(), Rng(11), cfg);
  std::ostringstream os;
  os << drive_pin_stream(sim, q, 31) << describe("all", q.counters())
     << "\n  pkts=" << q.packet_count() << " bytes=" << q.byte_count()
     << " marked=" << q.packets_marked();
  return os.str();
}

TEST(RouterQueuePinTest, PelsQueueDefault) {
  EXPECT_EQ(pels_pin(test_config()),
            "digest=3779364146751503823 served=2876\n"
            "  all arr=595,634,663,1094,605 drop=0,72,445,135,0 dep=588,533,206,948,601\n"
            "  all arrB=459772,500012,508471,857103,455717\n"
            "  all dropB=0,60733,332273,109407,0\n"
            "  group arr=595,634,663,0,605 drop=0,72,445,0,0 dep=588,533,206,0,601\n"
            "  group arrB=459772,500012,508471,0,455717\n"
            "  group dropB=0,60733,332273,0,0\n"
            "  internet arr=0,0,0,1094,0 drop=0,0,0,135,0 dep=0,0,0,948,0\n"
            "  internet arrB=0,0,0,857103,0\n"
            "  internet dropB=0,0,0,109407,0\n"
            "  bands=11,29,12 pkts=63 bytes=50420 credit=270,1418 marks=0");
}

TEST(RouterQueuePinTest, PelsQueueMergedFgsBands) {
  PelsQueueConfig cfg = test_config();
  cfg.merge_fgs_bands = true;
  EXPECT_EQ(pels_pin(cfg),
            "digest=16268870194861128853 served=2919\n"
            "  all arr=595,634,663,1094,605 drop=0,226,240,132,0 dep=588,377,402,951,601\n"
            "  all arrB=459772,500012,508471,857103,455717\n"
            "  all dropB=0,175267,175299,106734,0\n"
            "  group arr=595,634,663,0,605 drop=0,226,240,0,0 dep=588,377,402,0,601\n"
            "  group arrB=459772,500012,508471,0,455717\n"
            "  group dropB=0,175267,175299,0,0\n"
            "  internet arr=0,0,0,1094,0 drop=0,0,0,132,0 dep=0,0,0,951,0\n"
            "  internet arrB=0,0,0,857103,0\n"
            "  internet dropB=0,0,0,106734,0\n"
            "  bands=11,52,0 pkts=74 bytes=59032 credit=674,1601 marks=0");
}

TEST(RouterQueuePinTest, PelsQueueEcnThreshold) {
  PelsQueueConfig cfg = test_config();
  cfg.ecn_mark_threshold_pkts = 5;
  EXPECT_EQ(pels_pin(cfg),
            "digest=8735931358607199378 served=2876\n"
            "  all arr=595,634,663,1094,605 drop=0,72,445,135,0 dep=588,533,206,948,601\n"
            "  all arrB=459772,500012,508471,857103,455717\n"
            "  all dropB=0,60733,332273,109407,0\n"
            "  group arr=595,634,663,0,605 drop=0,72,445,0,0 dep=588,533,206,0,601\n"
            "  group arrB=459772,500012,508471,0,455717\n"
            "  group dropB=0,60733,332273,0,0\n"
            "  internet arr=0,0,0,1094,0 drop=0,0,0,135,0 dep=0,0,0,948,0\n"
            "  internet arrB=0,0,0,857103,0\n"
            "  internet dropB=0,0,0,109407,0\n"
            "  bands=11,29,12 pkts=63 bytes=50420 credit=270,1418 marks=1920");
}

TEST(RouterQueuePinTest, PelsQueueUnequalWeights) {
  PelsQueueConfig cfg = test_config();
  cfg.pels_weight = 0.1;
  cfg.internet_weight = 0.9;
  EXPECT_EQ(pels_pin(cfg),
            "digest=8828023911577738823 served=2962\n"
            "  all arr=595,634,663,1094,605 drop=0,90,461,9,0 dep=582,514,190,1083,593\n"
            "  all arrB=459772,500012,508471,857103,455717\n"
            "  all dropB=0,73184,342723,7974,0\n"
            "  group arr=595,634,663,0,605 drop=0,90,461,0,0 dep=582,514,190,0,593\n"
            "  group arrB=459772,500012,508471,0,455717\n"
            "  group dropB=0,73184,342723,0,0\n"
            "  internet arr=0,0,0,1094,0 drop=0,0,0,9,0 dep=0,0,0,1083,0\n"
            "  internet arrB=0,0,0,857103,0\n"
            "  internet dropB=0,0,0,7974,0\n"
            "  bands=25,30,12 pkts=69 bytes=54968 credit=131,0 marks=0");
}

TEST(RouterQueuePinTest, BestEffortQueueProtected) {
  EXPECT_EQ(best_effort_pin(true),
            "digest=2213053976993938087 served=2654\n"
            "  all arr=627,619,646,1115,635 drop=91,294,297,173,76 dep=516,320,344,931,543\n"
            "  all arrB=485368,486188,494588,874474,479177\n"
            "  all dropB=63149,241859,217094,142180,57924\n"
            "  video arr=627,363,390,0,635 drop=91,38,41,0,76 dep=516,320,344,0,543\n"
            "  video arrB=485368,274926,303378,0,479177\n"
            "  video dropB=63149,30597,25884,0,57924\n"
            "  internet arr=0,0,0,1115,0 drop=0,0,0,173,0 dep=0,0,0,931,0\n"
            "  internet arrB=0,0,0,874474,0\n"
            "  internet dropB=0,0,0,142180,0\n"
            "  pkts=57 bytes=47907");
}

TEST(RouterQueuePinTest, BestEffortQueueUnprotected) {
  EXPECT_EQ(best_effort_pin(false),
            "digest=7298557635290364055 served=2609\n"
            "  all arr=627,619,646,1115,635 drop=264,256,273,178,20 dep=359,359,367,925,599\n"
            "  all arrB=485368,486188,494588,874474,479177\n"
            "  all dropB=204517,208578,199953,145621,13520\n"
            "  video arr=380,379,389,0,635 drop=17,16,16,0,20 dep=359,359,367,0,599\n"
            "  video arrB=292163,289562,307196,0,479177\n"
            "  video dropB=11312,11952,12561,0,13520\n"
            "  internet arr=0,0,0,1115,0 drop=0,0,0,178,0 dep=0,0,0,925,0\n"
            "  internet arrB=0,0,0,874474,0\n"
            "  internet dropB=0,0,0,145621,0\n"
            "  pkts=42 bytes=33757");
}

TEST(RouterQueuePinTest, RemQueue) {
  EXPECT_EQ(rem_pin(),
            "digest=11331830869982387672 served=2845\n"
            "  all arr=623,644,609,1038,639 drop=126,135,140,87,136 dep=484,488,450,939,484\n"
            "  all arrB=475701,504066,477596,819316,494537\n"
            "  all dropB=91669,107616,104721,65853,105291\n"
            "  pkts=84 bytes=59904 marked=2009");
}

}  // namespace
}  // namespace pels
