// Tests for the REM marking AQM and REM-responsive source control (paper
// §2.2 ref [20]), including the full-stack marking-based streaming path.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <stdexcept>
#include <string>

#include "pels/scenario.h"
#include "queue/rem.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "one_flow.h"
#include "pop_packet.h"

namespace pels {
namespace {

Packet make_packet(std::int32_t size, Color color) {
  Packet p;
  p.size_bytes = size;
  p.color = color;
  return p;
}

RemQueueConfig queue_config() {
  RemQueueConfig cfg;
  cfg.link_bandwidth_bps = 4e6;  // video share 2 mb/s
  cfg.price_interval = from_millis(30);
  return cfg;
}

// ------------------------------------------------ RemQueueConfig checks

struct BadRemField {
  const char* field;
  void (*spoil)(RemQueueConfig&);
};

// Names each case by its field in test listings.
void PrintTo(const BadRemField& bad, std::ostream* os) { *os << bad.field; }

class RemQueueConfigTest : public ::testing::TestWithParam<BadRemField> {};

TEST_P(RemQueueConfigTest, RejectsFieldByName) {
  // Before validation, Release builds accepted these: phi <= 1 or gamma <= 0
  // silently never marked, and a zero weight broke the DRR split.
  RemQueueConfig cfg = queue_config();
  EXPECT_NO_THROW(cfg.validate());
  GetParam().spoil(cfg);
  try {
    cfg.validate();
    ADD_FAILURE() << "validate() accepted a bad " << GetParam().field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().field), std::string::npos) << e.what();
  }
  Simulation sim;
  EXPECT_THROW(RemQueue(sim.scheduler(), sim.make_rng(1), cfg), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    Fields, RemQueueConfigTest,
    ::testing::Values(
        BadRemField{"link_bandwidth_bps", [](RemQueueConfig& c) { c.link_bandwidth_bps = -1.0; }},
        BadRemField{"video_weight", [](RemQueueConfig& c) { c.video_weight = 0.0; }},
        BadRemField{"internet_weight", [](RemQueueConfig& c) { c.internet_weight = 0.0; }},
        BadRemField{"price_interval", [](RemQueueConfig& c) { c.price_interval = 0; }},
        BadRemField{"gamma", [](RemQueueConfig& c) { c.gamma = 0.0; }},
        BadRemField{"alpha_q", [](RemQueueConfig& c) { c.alpha_q = -0.1; }},
        BadRemField{"phi", [](RemQueueConfig& c) { c.phi = 1.0; }},
        BadRemField{"video_limit", [](RemQueueConfig& c) { c.video_limit = 0; }},
        BadRemField{"internet_limit", [](RemQueueConfig& c) { c.internet_limit = 0; }}));

// --------------------------------------------------------------- RemQueue

TEST(RemQueueTest, PriceStartsAtZeroAndNothingMarked) {
  Simulation sim;
  RemQueue q(sim.scheduler(), sim.make_rng(1), queue_config());
  EXPECT_DOUBLE_EQ(q.price(), 0.0);
  EXPECT_DOUBLE_EQ(q.mark_probability(), 0.0);
  q.enqueue(make_packet(500, Color::kYellow));
  auto pkt = pop_packet(q);
  ASSERT_TRUE(pkt.has_value());
  EXPECT_FALSE(pkt->ecn_marked);
}

TEST(RemQueueTest, PriceRisesUnderOverload) {
  Simulation sim;
  RemQueue q(sim.scheduler(), sim.make_rng(2), queue_config());
  // Offer 2x the video capacity each interval without draining.
  for (int interval = 0; interval < 5; ++interval) {
    for (int i = 0; i < 30; ++i) q.enqueue(make_packet(500, Color::kYellow));
    sim.run_until((interval + 1) * from_millis(30) + from_millis(1));
  }
  EXPECT_GT(q.price(), 0.0);
  EXPECT_GT(q.mark_probability(), 0.0);
}

TEST(RemQueueTest, PriceDecaysWhenIdle) {
  Simulation sim;
  RemQueue q(sim.scheduler(), sim.make_rng(3), queue_config());
  for (int i = 0; i < 200; ++i) q.enqueue(make_packet(500, Color::kYellow));
  sim.run_until(from_millis(95));
  while (pop_packet(q).has_value()) {
  }
  const double loaded = q.price();
  ASSERT_GT(loaded, 0.0);
  sim.run_until(kSecond);  // idle intervals: negative excess drives price down
  EXPECT_LT(q.price(), loaded * 0.1);
}

TEST(RemQueueTest, MarkProbabilityFollowsPhiLaw) {
  Simulation sim;
  RemQueueConfig cfg = queue_config();
  RemQueue q(sim.scheduler(), sim.make_rng(4), cfg);
  for (int i = 0; i < 400; ++i) q.enqueue(make_packet(500, Color::kYellow));
  sim.run_until(from_millis(151));
  EXPECT_NEAR(q.mark_probability(), 1.0 - std::pow(cfg.phi, -q.price()), 1e-12);
}

TEST(RemQueueTest, MarkRateMatchesProbability) {
  Simulation sim;
  RemQueueConfig cfg = queue_config();
  RemQueue q(sim.scheduler(), sim.make_rng(5), cfg);
  // Prime a stable price, then measure empirical mark fraction.
  for (int i = 0; i < 400; ++i) q.enqueue(make_packet(500, Color::kYellow));
  sim.run_until(from_millis(151));
  const double p_mark = q.mark_probability();
  ASSERT_GT(p_mark, 0.05);
  const std::uint64_t before = q.packets_marked();
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    q.enqueue(make_packet(500, Color::kYellow));
    pop_packet(q);
  }
  const double observed = static_cast<double>(q.packets_marked() - before) / n;
  // The price drifts during the burst; allow a loose band.
  EXPECT_GT(observed, 0.5 * p_mark);
}

TEST(RemQueueTest, InternetTrafficNeverMarked) {
  Simulation sim;
  RemQueue q(sim.scheduler(), sim.make_rng(6), queue_config());
  for (int i = 0; i < 400; ++i) q.enqueue(make_packet(500, Color::kYellow));
  sim.run_until(from_millis(151));
  for (int i = 0; i < 100; ++i) {
    q.enqueue(make_packet(1000, Color::kInternet));
  }
  std::uint64_t internet_marked = 0;
  while (auto pkt = pop_packet(q)) {
    if (pkt->color == Color::kInternet && pkt->ecn_marked) ++internet_marked;
  }
  EXPECT_EQ(internet_marked, 0u);
}

// ------------------------------------------------- REM on a FlowTable slot

TEST(RemControllerTest, FixedPointIsWillingnessOverPrice) {
  RemControllerConfig cfg;
  cfg.willingness = 100e3;
  cfg.phi = 1.2;
  OneFlow ctl(CcKind::kRem, {.rem = cfg});
  // Mark fraction corresponding to price 0.1: f = 1 - phi^-0.1.
  const double price = 0.1;
  const double f = 1.0 - std::pow(cfg.phi, -price);
  for (int i = 0; i < 500; ++i) ctl.mark(f);
  EXPECT_NEAR(ctl.table.rem_price(ctl.slot), price, 1e-9);
  EXPECT_NEAR(ctl.rate_bps(), cfg.willingness / price, cfg.willingness / price * 0.01);
}

TEST(RemControllerTest, NoMarksMeansGrowth) {
  OneFlow ctl(CcKind::kRem);
  const double before = ctl.rate_bps();
  ctl.mark(0.0);
  EXPECT_GT(ctl.rate_bps(), before);
}

TEST(RemControllerTest, IgnoresLossFeedback) {
  OneFlow ctl(CcKind::kRem);
  const double before = ctl.rate_bps();
  ctl.feedback(0.5);
  ctl.silence();
  ctl.loss(0.5);
  EXPECT_DOUBLE_EQ(ctl.rate_bps(), before);
}

TEST(RemControllerTest, HigherWillingnessGetsMoreRate) {
  RemControllerConfig a_cfg, b_cfg;
  a_cfg.willingness = 50e3;
  b_cfg.willingness = 150e3;
  OneFlow a(CcKind::kRem, {.rem = a_cfg});
  OneFlow b(CcKind::kRem, {.rem = b_cfg});
  const double f = 1.0 - std::pow(1.2, -0.1);
  for (int i = 0; i < 500; ++i) {
    a.mark(f);
    b.mark(f);
  }
  // Weighted proportional fairness: rates scale with w.
  EXPECT_NEAR(b.rate_bps() / a.rate_bps(), 3.0, 0.05);
}

// ------------------------------------------------------------ full stack

TEST(RemIntegration, MarkingKeepsVideoLossFree) {
  ScenarioConfig cfg;
  cfg.pels_flows = 2;
  cfg.tcp_flows = 3;
  cfg.seed = 9;
  cfg.bottleneck = BottleneckKind::kRem;
  DumbbellScenario s(cfg);
  s.run_until(40 * kSecond);
  s.finish();
  // Congestion is signalled, not enforced: (almost) no video drops, so the
  // FGS prefix survives and utility stays ~1 even without priorities.
  const auto& c = s.bottleneck_queue().counters();
  const auto yellow = static_cast<std::size_t>(Color::kYellow);
  ASSERT_GT(c.arrivals[yellow], 10'000u);
  EXPECT_LT(static_cast<double>(c.drops[yellow]) /
                static_cast<double>(c.arrivals[yellow]),
            0.01);
  EXPECT_GT(s.sink(0).mean_utility(), 0.98);
  EXPECT_GT(s.rem_queue()->packets_marked(), 100u);
}

TEST(RemIntegration, RatesConvergeAndShareFairly) {
  ScenarioConfig cfg;
  cfg.pels_flows = 2;
  cfg.tcp_flows = 3;
  cfg.seed = 9;
  cfg.bottleneck = BottleneckKind::kRem;
  DumbbellScenario s(cfg);
  const SimTime duration = 60 * kSecond;
  s.run_until(duration);
  const double r0 = s.source(0).rate_series().mean_in(40 * kSecond, duration);
  const double r1 = s.source(1).rate_series().mean_in(40 * kSecond, duration);
  const double shares[] = {r0, r1};
  EXPECT_GT(jain_fairness_index(shares), 0.99);
  // Equal willingness: equal shares, and the aggregate tracks the video
  // capacity (REM equalizes demand to capacity through the price).
  EXPECT_NEAR(r0 + r1, s.video_capacity_bps(), s.video_capacity_bps() * 0.15);
}

}  // namespace
}  // namespace pels
