// Multi-bottleneck (parking-lot) integration tests: the max-min
// most-congested-router feedback semantics of paper §5.2, on the parking lot
// that DumbbellScenario builds from parking_lot_config.
#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/stability.h"
#include "pels/scenario.h"
#include "util/stats.h"

namespace pels {
namespace {

// Router ids the two hops stamp (parking_lot_config sets router_id = 1).
constexpr std::int32_t kRouter1 = 1;
constexpr std::int32_t kRouter2 = 2;

ScenarioConfig base_config(int cross_hop1 = 1, int cross_hop2 = 3) {
  ScenarioConfig cfg = parking_lot_config(1, cross_hop1, cross_hop2);
  cfg.seed = 11;
  return cfg;
}

// Flow order is long, then hop-1 cross flows, then hop-2 cross flows.
PelsSource& long_flow(DumbbellScenario& s) { return s.source(0); }
PelsSource& cross_hop1(DumbbellScenario& s, int i) { return s.source(1 + i); }
PelsSource& cross_hop2(DumbbellScenario& s, int cross_hop1_flows, int i) {
  return s.source(1 + cross_hop1_flows + i);
}

TEST(ParkingLotTest, LongFlowBindsToMostCongestedRouter) {
  // Hop 2 carries the long flow plus three cross flows; hop 1 only one cross
  // flow. Hop 2 is therefore the tighter resource, and the label the long
  // flow consumes must come from router 2.
  DumbbellScenario s(base_config());
  s.run_until(30 * kSecond);
  EXPECT_EQ(long_flow(s).governing_router(), kRouter2);
}

TEST(ParkingLotTest, MaxMinAllocationAcrossHops) {
  // The long flow gets the same share as its hop-2 peers (4 flows on the
  // 2 mb/s PELS class: r* ~ 540 kb/s), while the hop-1 cross flow soaks up
  // hop 1's leftover (~1.5 mb/s +): max-min, not proportional fairness.
  ScenarioConfig cfg = base_config();
  DumbbellScenario s(cfg);
  const SimTime duration = 40 * kSecond;
  s.run_until(duration);

  const double r_long = long_flow(s).rate_series().mean_in(20 * kSecond, duration);
  const double r_hop2 = cross_hop2(s, 1, 0).rate_series().mean_in(20 * kSecond, duration);
  const double r_hop1 = cross_hop1(s, 0).rate_series().mean_in(20 * kSecond, duration);
  const double r_star_hop2 = mkc_stationary_rate(s.pels_queue(1)->pels_capacity_bps(), 4,
                                                 cfg.mkc.alpha_bps, cfg.mkc.beta);
  EXPECT_NEAR(r_long, r_star_hop2, r_star_hop2 * 0.10);
  EXPECT_NEAR(r_hop2, r_star_hop2, r_star_hop2 * 0.10);
  // Hop 1's cross flow takes the slack the long flow leaves on hop 1.
  EXPECT_GT(r_hop1, 2.0 * r_long);
}

TEST(ParkingLotTest, BothHopsStayFullyUtilized) {
  DumbbellScenario s(base_config());
  const SimTime duration = 40 * kSecond;
  s.run_until(duration);
  const double r_long = long_flow(s).rate_series().mean_in(20 * kSecond, duration);
  const double r_hop1 = cross_hop1(s, 0).rate_series().mean_in(20 * kSecond, duration);
  double hop2_sum = r_long;
  for (int i = 0; i < 3; ++i)
    hop2_sum += cross_hop2(s, 1, i).rate_series().mean_in(20 * kSecond, duration);
  // Demand slightly exceeds capacity at equilibrium (the alpha/beta
  // overshoot); both PELS classes are saturated.
  EXPECT_GT(r_long + r_hop1, s.pels_queue(0)->pels_capacity_bps());
  EXPECT_GT(hop2_sum, s.pels_queue(1)->pels_capacity_bps());
}

TEST(ParkingLotTest, BottleneckShiftIsTracked) {
  // Start with hop 2 congested; make hop 1 the tight link by shrinking its
  // capacity mid-run (modelled as a fresh scenario with reversed cross
  // loads). The long flow's governing router must follow.
  DumbbellScenario s(base_config(3, 1));
  s.run_until(30 * kSecond);
  EXPECT_EQ(long_flow(s).governing_router(), kRouter1);
}

TEST(ParkingLotTest, UnequalCapacitiesBindTighterLink) {
  ScenarioConfig cfg = base_config(2, 2);
  cfg.bottleneck_bps = 2e6;     // PELS share 1 mb/s
  cfg.downstream_bps = {6e6};   // PELS share 3 mb/s
  DumbbellScenario s(cfg);
  const SimTime duration = 40 * kSecond;
  s.run_until(duration);
  EXPECT_EQ(long_flow(s).governing_router(), kRouter1);
  const double r_long = long_flow(s).rate_series().mean_in(20 * kSecond, duration);
  const double r_star_hop1 = mkc_stationary_rate(s.pels_queue(0)->pels_capacity_bps(), 3,
                                                 cfg.mkc.alpha_bps, cfg.mkc.beta);
  EXPECT_NEAR(r_long, r_star_hop1, r_star_hop1 * 0.12);
}

TEST(ParkingLotTest, GammaProtectsYellowOnBothHops) {
  DumbbellScenario s(base_config());
  s.run_until(60 * kSecond);
  for (int hop = 0; hop < 2; ++hop) {
    const auto& c = s.pels_queue(hop)->counters();
    const auto y = static_cast<std::size_t>(Color::kYellow);
    if (c.arrivals[y] == 0) continue;
    const double yellow_loss =
        static_cast<double>(c.drops[y]) / static_cast<double>(c.arrivals[y]);
    EXPECT_LT(yellow_loss, 0.03);
    EXPECT_EQ(c.drops[static_cast<std::size_t>(Color::kGreen)], 0u);
  }
}

TEST(ParkingLotTest, LongFlowUtilityStaysHigh) {
  // Crossing two priority AQMs must not break the consecutive-prefix
  // property: drops still concentrate in red at whichever hop is tight.
  DumbbellScenario s(base_config());
  s.run_until(40 * kSecond);
  s.finish();
  EXPECT_GT(s.sink(0).mean_utility(), 0.9);
}

TEST(ParkingLotTest, Deterministic) {
  auto run = [] {
    DumbbellScenario s(base_config());
    s.run_until(10 * kSecond);
    return std::pair{long_flow(s).rate_bps(), s.pels_queue(1)->counters().total_drops()};
  };
  EXPECT_EQ(run(), run());
}

TEST(ParkingLotTest, ConfigGeometry) {
  const ScenarioConfig cfg = base_config();
  EXPECT_EQ(cfg.hops(), 2);
  EXPECT_EQ(cfg.pels_flows, 5);
  EXPECT_EQ(cfg.tcp_flows, 0);
  DumbbellScenario s(cfg);
  // Links 0/1 are hop 0 forward/reverse, links 2/3 hop 1's.
  EXPECT_EQ(&s.topology().link(0).queue(), &s.bottleneck_queue());
  EXPECT_EQ(&s.topology().link(2).queue(), static_cast<QueueDisc*>(s.pels_queue(1)));
  EXPECT_EQ(s.pels_queue(0)->config().router_id, kRouter1);
  EXPECT_EQ(s.pels_queue(1)->config().router_id, kRouter2);
}

TEST(ParkingLotTest, MonitorAndTelemetryCoverEveryHop) {
  ScenarioConfig cfg = base_config();
  cfg.invariants.enabled = true;
  cfg.invariants.abort_on_violation = true;
  cfg.telemetry.enabled = true;
  cfg.telemetry.max_samples = 512;
  DumbbellScenario s(cfg);
  const SimTime duration = 40 * kSecond;
  EXPECT_NO_THROW(s.run_until(duration));
  ASSERT_NE(s.invariant_monitor(), nullptr);
  EXPECT_EQ(s.invariant_monitor()->violation_count(), 0u);
  EXPECT_GT(s.invariant_monitor()->ticks(), 0u);

  // Hop 0 keeps the bar-bell names; hop 2 of the parking lot has its own.
  const TimeSeriesSampler& sampler = *s.telemetry_sampler();
  const TimeSeries hop2_yellow = sampler.series("bottleneck2.yellow_arrivals");
  ASSERT_GT(hop2_yellow.size(), 100u);
  EXPECT_GT(hop2_yellow[hop2_yellow.size() - 1].value, hop2_yellow[0].value);
  EXPECT_GT(sampler.series("bottleneck2.yellow_pkts").size(), 100u);
  EXPECT_NO_THROW(sampler.series("bottleneck2.link.delivered_pkts"));
  EXPECT_NO_THROW(sampler.series("bottleneck.yellow_arrivals"));
}

TEST(ParkingLotTest, ConfigValidationFailsFast) {
  EXPECT_NO_THROW(base_config().validate());
  const auto rejects = [](auto mutate) {
    ScenarioConfig cfg = base_config();
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    EXPECT_THROW(DumbbellScenario{cfg}, std::invalid_argument);
  };
  // A downstream rate <= 0.
  rejects([](ScenarioConfig& c) { c.downstream_bps = {0.0}; });
  rejects([](ScenarioConfig& c) { c.downstream_bps = {-4e6}; });
  // A span with first > last, or outside the hops.
  rejects([](ScenarioConfig& c) { c.hop_spans = {{1, 0}}; });
  rejects([](ScenarioConfig& c) { c.hop_spans = {{-1, 0}}; });
  rejects([](ScenarioConfig& c) { c.hop_spans = {{0, 2}}; });
  rejects([](ScenarioConfig& c) {
    c.downstream_bps.clear();
    c.hop_spans = {{1, 1}};
  });
  // Downstream hops behind a comparator bottleneck.
  rejects([](ScenarioConfig& c) { c.bottleneck = BottleneckKind::kBestEffort; });
  rejects([](ScenarioConfig& c) { c.bottleneck = BottleneckKind::kRem; });
  // What the bar-bell already rejects still holds on the parking lot.
  rejects([](ScenarioConfig& c) { c.edge_bps = -1.0; });
  rejects([](ScenarioConfig& c) { c.bottleneck_delay = -1; });
  rejects([](ScenarioConfig& c) { c.mkc.beta = 2.5; });
  EXPECT_THROW(parking_lot_config(0, 0, 0).validate(), std::invalid_argument);
  // The helper itself refuses negative flow counts.
  EXPECT_THROW(parking_lot_config(1, -1, 3), std::invalid_argument);
  EXPECT_THROW(parking_lot_config(1, 1, -3), std::invalid_argument);
}

}  // namespace
}  // namespace pels
