// Multi-bottleneck (parking-lot) integration tests: the max-min
// most-congested-router feedback semantics of paper §5.2.
#include <gtest/gtest.h>

#include <stdexcept>

#include "analysis/stability.h"
#include "pels/multihop.h"
#include "util/stats.h"

namespace pels {
namespace {

ParkingLotConfig base_config() {
  ParkingLotConfig cfg;
  cfg.long_flows = 1;
  cfg.cross_flows_hop1 = 1;
  cfg.cross_flows_hop2 = 3;
  cfg.seed = 11;
  return cfg;
}

TEST(ParkingLotTest, LongFlowBindsToMostCongestedRouter) {
  // Hop 2 carries the long flow plus three cross flows; hop 1 only one cross
  // flow. Hop 2 is therefore the tighter resource, and the label the long
  // flow consumes must come from router 2.
  ParkingLotScenario s(base_config());
  s.run_until(30 * kSecond);
  EXPECT_EQ(s.long_flow(0).governing_router(), ParkingLotScenario::kRouter2);
}

TEST(ParkingLotTest, MaxMinAllocationAcrossHops) {
  // The long flow gets the same share as its hop-2 peers (4 flows on the
  // 2 mb/s PELS class: r* ~ 540 kb/s), while the hop-1 cross flow soaks up
  // hop 1's leftover (~1.5 mb/s +): max-min, not proportional fairness.
  ParkingLotConfig cfg = base_config();
  ParkingLotScenario s(cfg);
  const SimTime duration = 40 * kSecond;
  s.run_until(duration);

  const double r_long = s.long_flow(0).rate_series().mean_in(20 * kSecond, duration);
  const double r_hop2 = s.cross_flow_hop2(0).rate_series().mean_in(20 * kSecond, duration);
  const double r_hop1 = s.cross_flow_hop1(0).rate_series().mean_in(20 * kSecond, duration);
  const double r_star_hop2 =
      mkc_stationary_rate(s.bottleneck2().pels_capacity_bps(), 4, cfg.mkc.alpha_bps,
                          cfg.mkc.beta);
  EXPECT_NEAR(r_long, r_star_hop2, r_star_hop2 * 0.10);
  EXPECT_NEAR(r_hop2, r_star_hop2, r_star_hop2 * 0.10);
  // Hop 1's cross flow takes the slack the long flow leaves on hop 1.
  EXPECT_GT(r_hop1, 2.0 * r_long);
}

TEST(ParkingLotTest, BothHopsStayFullyUtilized) {
  ParkingLotConfig cfg = base_config();
  ParkingLotScenario s(cfg);
  const SimTime duration = 40 * kSecond;
  s.run_until(duration);
  const double r_long = s.long_flow(0).rate_series().mean_in(20 * kSecond, duration);
  const double r_hop1 = s.cross_flow_hop1(0).rate_series().mean_in(20 * kSecond, duration);
  double hop2_sum = r_long;
  for (int i = 0; i < 3; ++i)
    hop2_sum += s.cross_flow_hop2(i).rate_series().mean_in(20 * kSecond, duration);
  // Demand slightly exceeds capacity at equilibrium (the alpha/beta
  // overshoot); both PELS classes are saturated.
  EXPECT_GT(r_long + r_hop1, s.bottleneck1().pels_capacity_bps());
  EXPECT_GT(hop2_sum, s.bottleneck2().pels_capacity_bps());
}

TEST(ParkingLotTest, BottleneckShiftIsTracked) {
  // Start with hop 2 congested; make hop 1 the tight link by shrinking its
  // capacity mid-run (modelled as a fresh scenario with reversed cross
  // loads). The long flow's governing router must follow.
  ParkingLotConfig cfg = base_config();
  cfg.cross_flows_hop1 = 3;
  cfg.cross_flows_hop2 = 1;
  ParkingLotScenario s(cfg);
  s.run_until(30 * kSecond);
  EXPECT_EQ(s.long_flow(0).governing_router(), ParkingLotScenario::kRouter1);
}

TEST(ParkingLotTest, UnequalCapacitiesBindTighterLink) {
  ParkingLotConfig cfg = base_config();
  cfg.cross_flows_hop1 = 2;
  cfg.cross_flows_hop2 = 2;
  cfg.bottleneck1_bps = 2e6;  // PELS share 1 mb/s
  cfg.bottleneck2_bps = 6e6;  // PELS share 3 mb/s
  ParkingLotScenario s(cfg);
  const SimTime duration = 40 * kSecond;
  s.run_until(duration);
  EXPECT_EQ(s.long_flow(0).governing_router(), ParkingLotScenario::kRouter1);
  const double r_long = s.long_flow(0).rate_series().mean_in(20 * kSecond, duration);
  const double r_star_hop1 =
      mkc_stationary_rate(s.bottleneck1().pels_capacity_bps(), 3, cfg.mkc.alpha_bps,
                          cfg.mkc.beta);
  EXPECT_NEAR(r_long, r_star_hop1, r_star_hop1 * 0.12);
}

TEST(ParkingLotTest, GammaProtectsYellowOnBothHops) {
  ParkingLotScenario s(base_config());
  s.run_until(60 * kSecond);
  for (PelsQueue* q : {&s.bottleneck1(), &s.bottleneck2()}) {
    const auto& c = q->counters();
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
  ParkingLotScenario s(base_config());
  s.run_until(40 * kSecond);
  s.finish();
  EXPECT_GT(s.long_sink(0).mean_utility(), 0.9);
}

TEST(ParkingLotTest, Deterministic) {
  auto run = [] {
    ParkingLotScenario s(base_config());
    s.run_until(10 * kSecond);
    return std::pair{s.long_flow(0).rate_bps(),
                     s.bottleneck2().counters().total_drops()};
  };
  EXPECT_EQ(run(), run());
}

TEST(ParkingLotTest, ConfigValidationFailsFast) {
  EXPECT_NO_THROW(base_config().validate());
  const auto rejects = [](auto mutate) {
    ParkingLotConfig cfg = base_config();
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
    EXPECT_THROW(ParkingLotScenario{cfg}, std::invalid_argument);
  };
  rejects([](ParkingLotConfig& c) { c.long_flows = 0; });
  rejects([](ParkingLotConfig& c) { c.cross_flows_hop1 = -1; });
  rejects([](ParkingLotConfig& c) { c.cross_flows_hop2 = -1; });
  rejects([](ParkingLotConfig& c) { c.bottleneck2_bps = 0.0; });
  rejects([](ParkingLotConfig& c) { c.edge_bps = -1.0; });
  rejects([](ParkingLotConfig& c) { c.bottleneck_delay = -1; });
  rejects([](ParkingLotConfig& c) { c.mkc.beta = 2.5; });
}

}  // namespace
}  // namespace pels
