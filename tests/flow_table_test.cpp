// FlowTable unit tests: slot lifecycle, config validation, and the
// bit-for-bit equivalence of controller views and direct apply_* calls on a
// table slot (the determinism contract stated in cc/flow_table.h).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "cc/flow_table.h"
#include "cc/mkc.h"
#include "util/rng.h"

namespace pels {
namespace {

MkcConfig mkc_config() {
  MkcConfig cfg;  // defaults match the paper's operating point
  return cfg;
}

GammaConfig gamma_config() {
  GammaConfig cfg;
  return cfg;
}

TEST(FlowTableTest, SlotsAllocateDenselyAndReuseLifo) {
  FlowTable table(mkc_config(), gamma_config());
  const FlowSlot a = table.add_flow();
  const FlowSlot b = table.add_flow();
  const FlowSlot c = table.add_flow();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.capacity(), 3u);

  table.remove_flow(b);
  EXPECT_FALSE(table.is_live(b));
  EXPECT_EQ(table.size(), 2u);

  // Freed slots come back LIFO; the columns never grow for reuse.
  const FlowSlot d = table.add_flow();
  EXPECT_EQ(d, b);
  EXPECT_TRUE(table.is_live(d));
  EXPECT_EQ(table.capacity(), 3u);

  // A reused slot starts from the configured initial state, not the
  // previous occupant's.
  EXPECT_DOUBLE_EQ(table.rate_bps(d), mkc_config().initial_rate_bps);
  EXPECT_DOUBLE_EQ(table.gamma(d), gamma_config().initial_gamma);
  EXPECT_EQ(table.mkc_updates(d), 0u);
  EXPECT_FALSE(table.in_silence(d));
}

TEST(FlowTableTest, ExplicitInitialStateOverload) {
  FlowTable table(mkc_config(), gamma_config());
  const FlowSlot s = table.add_flow(512e3, 0.25);
  EXPECT_DOUBLE_EQ(table.rate_bps(s), 512e3);
  EXPECT_DOUBLE_EQ(table.gamma(s), 0.25);
}

TEST(FlowTableTest, ReserveKeepsColumnsStable) {
  FlowTable table(mkc_config(), gamma_config());
  table.reserve(64);
  const FlowSlot first = table.add_flow();
  const double* cell = &table.paced_rate_ref(first);
  for (int i = 1; i < 64; ++i) table.add_flow();
  // No column reallocated within the reserved population, so the reference
  // taken before the adds is still the live cell.
  EXPECT_EQ(cell, &table.paced_rate_ref(first));
}

// The core contract: any interleaving of feedback / silence / gamma inputs
// produces exactly the same doubles through (a) a standalone controller's
// calls (on its own one-slot table) and (b) direct apply_* calls on a slot of
// a second table, the way the population driver updates its flows.
TEST(FlowTableTest, SingleFlowOpsMatchControllersBitForBit) {
  const MkcConfig mkc = mkc_config();
  const GammaConfig gc = gamma_config();
  MkcController ctrl(mkc);
  FlowTable& applied = ctrl.table();
  FlowTable direct(mkc, gc);
  const FlowSlot slot = direct.add_flow();

  Rng rng(7, 0xF10);
  for (int step = 0; step < 2000; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 2));
    if (op == 0) {
      const double p = rng.uniform(-2.0, 0.9);
      ctrl.on_router_feedback(p, 0);
      direct.apply_feedback(slot, p);
    } else if (op == 1) {
      ctrl.on_feedback_silence(0);
      direct.apply_silence(slot);
    } else {
      const double p_fgs = rng.uniform(-0.2, 1.2);
      applied.apply_gamma(ctrl.slot(), p_fgs);
      direct.apply_gamma(slot, p_fgs);
    }
    ASSERT_EQ(ctrl.rate_bps(), direct.rate_bps(slot)) << "step " << step;
    ASSERT_EQ(ctrl.in_silence(), direct.in_silence(slot)) << "step " << step;
    ASSERT_EQ(applied.gamma(ctrl.slot()), direct.gamma(slot)) << "step " << step;
  }
  EXPECT_EQ(ctrl.updates(), direct.mkc_updates(slot));
  EXPECT_EQ(ctrl.silence_ticks(), direct.silence_ticks(slot));
  EXPECT_EQ(applied.gamma_updates(ctrl.slot()), direct.gamma_updates(slot));
}

// The population tick: one apply_feedback_all pass equals apply_feedback +
// apply_gamma on each live slot, bit for bit, on a table with freed slots
// (skipped, state untouched) and silent slots (the pass re-arms recovery).
TEST(FlowTableTest, FeedbackAllMatchesPerSlotOpsBitForBit) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  FlowTable all(mkc_config(), gamma_config());
  FlowTable each(mkc_config(), gamma_config());
  Rng rng(11, 0xA11);
  constexpr FlowSlot kSlots = 16;
  for (FlowSlot i = 0; i < kSlots; ++i) {
    const double rate = rng.uniform(10e3, 2e6);
    const double gamma = rng.uniform(0.0, 0.5);
    ASSERT_EQ(all.add_flow(rate, gamma), i);
    ASSERT_EQ(each.add_flow(rate, gamma), i);
  }
  const std::vector<FlowSlot> freed = {3, 7, 15};
  for (const FlowSlot slot : freed) {
    all.remove_flow(slot);
    each.remove_flow(slot);
  }
  std::vector<std::uint64_t> freed_rate, freed_gamma;
  for (const FlowSlot slot : freed) {
    freed_rate.push_back(bits(all.rate_bps(slot)));
    freed_gamma.push_back(bits(all.gamma(slot)));
  }
  for (FlowTable* t : {&all, &each}) {
    t->apply_silence(5);
    t->apply_silence(5);
    t->apply_silence(9);
  }
  ASSERT_TRUE(all.in_silence(5));

  for (int step = 0; step < 300; ++step) {
    if (step % 17 == 4) {
      // Silence a live slot now and then, so later passes re-arm recovery.
      const auto slot = static_cast<FlowSlot>(rng.uniform_int(0, kSlots - 1));
      if (all.is_live(slot)) {
        all.apply_silence(slot);
        each.apply_silence(slot);
      }
    }
    const double p = rng.uniform(-2.0, 0.9);
    const double p_fgs = rng.uniform(-0.2, 1.2);
    all.apply_feedback_all(p, p_fgs);
    for (FlowSlot slot = 0; slot < each.capacity(); ++slot) {
      if (!each.is_live(slot)) continue;
      each.apply_feedback(slot, p);
      each.apply_gamma(slot, p_fgs);
    }
    if (step == 0) {
      EXPECT_FALSE(all.in_silence(5));
    }
    for (FlowSlot slot = 0; slot < kSlots; ++slot) {
      ASSERT_EQ(bits(all.rate_bps(slot)), bits(each.rate_bps(slot))) << "step " << step;
      ASSERT_EQ(bits(all.gamma(slot)), bits(each.gamma(slot))) << "step " << step;
      ASSERT_EQ(all.in_silence(slot), each.in_silence(slot)) << "step " << step;
      ASSERT_EQ(all.mkc_updates(slot), each.mkc_updates(slot)) << "step " << step;
      ASSERT_EQ(all.gamma_updates(slot), each.gamma_updates(slot)) << "step " << step;
    }
  }
  for (std::size_t i = 0; i < freed.size(); ++i) {
    EXPECT_EQ(bits(all.rate_bps(freed[i])), freed_rate[i]);
    EXPECT_EQ(bits(all.gamma(freed[i])), freed_gamma[i]);
    EXPECT_EQ(all.mkc_updates(freed[i]), 0u);
    EXPECT_EQ(all.gamma_updates(freed[i]), 0u);
  }
  EXPECT_EQ(all.mkc_updates(0), 300u);
  EXPECT_EQ(all.gamma_updates(0), 300u);
}

TEST(FlowTableTest, TableBackedControllerRoutesThroughTable) {
  const MkcConfig mkc = mkc_config();
  FlowTable table(mkc, gamma_config());
  const FlowSlot slot = table.add_flow();
  MkcController routed(table, slot);
  MkcController standalone(mkc);

  routed.on_router_feedback(0.2, 0);
  standalone.on_router_feedback(0.2, 0);
  EXPECT_EQ(routed.rate_bps(), standalone.rate_bps());
  EXPECT_EQ(routed.rate_bps(), table.rate_bps(slot));
  EXPECT_EQ(routed.updates(), 1u);

  routed.on_feedback_silence(0);
  standalone.on_feedback_silence(0);
  EXPECT_EQ(routed.rate_bps(), standalone.rate_bps());
  EXPECT_TRUE(routed.in_silence());
  EXPECT_TRUE(table.in_silence(slot));
  EXPECT_EQ(routed.silence_ticks(), 1u);
}

// Every config the table holds is validated at construction, in any build
// type: a bad gain throws instead of slipping past a compiled-out assert.
TEST(FlowTableTest, DefaultConfigsAreAccepted) {
  EXPECT_NO_THROW(MkcConfig{}.validate());
  EXPECT_NO_THROW(GammaConfig{}.validate());
  EXPECT_NO_THROW(CubicConfig{}.validate());
  EXPECT_NO_THROW(DcqcnConfig{}.validate());
  EXPECT_NO_THROW(SwiftConfig{}.validate());
  EXPECT_NO_THROW(ScreamLiteConfig{}.validate());
  EXPECT_NO_THROW(FlowTable(MkcConfig{}, GammaConfig{}, CcZooConfig{}));
}

TEST(FlowTableTest, MkcConfigRejectsUnstableBeta) {
  MkcConfig cfg;
  cfg.beta = 2.0;  // outside Lemma 5's stability region
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(FlowTable(cfg, GammaConfig{}), std::invalid_argument);
  EXPECT_THROW(MkcController{cfg}, std::invalid_argument);
}

TEST(FlowTableTest, GammaConfigRejectsBadThresholdButNotUnstableSigma) {
  GammaConfig cfg;
  cfg.p_thr = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(FlowTable(MkcConfig{}, cfg), std::invalid_argument);
  GammaConfig divergent;
  divergent.sigma = 3.0;  // Figure 5 runs this gain on purpose
  EXPECT_NO_THROW(divergent.validate());
}

TEST(FlowTableTest, CubicConfigRejectsBetaAboveOne) {
  CcZooConfig zoo;
  zoo.cubic.beta = 1.5;
  EXPECT_THROW(zoo.cubic.validate(), std::invalid_argument);
  EXPECT_THROW(FlowTable(MkcConfig{}, GammaConfig{}, zoo), std::invalid_argument);
  EXPECT_THROW(CubicController{zoo.cubic}, std::invalid_argument);
}

TEST(FlowTableTest, DcqcnConfigRejectsZeroGain) {
  CcZooConfig zoo;
  zoo.dcqcn.alpha_g = 0.0;
  EXPECT_THROW(zoo.dcqcn.validate(), std::invalid_argument);
  EXPECT_THROW(FlowTable(MkcConfig{}, GammaConfig{}, zoo), std::invalid_argument);
}

TEST(FlowTableTest, SwiftConfigRejectsInvertedDelayBand) {
  CcZooConfig zoo;
  zoo.swift.q_low = zoo.swift.q_high;
  EXPECT_THROW(zoo.swift.validate(), std::invalid_argument);
  EXPECT_THROW(FlowTable(MkcConfig{}, GammaConfig{}, zoo), std::invalid_argument);
}

TEST(FlowTableTest, ScreamLiteConfigRejectsNonGrowingRamp) {
  CcZooConfig zoo;
  zoo.scream.max_tick_growth = 1.0;
  EXPECT_THROW(zoo.scream.validate(), std::invalid_argument);
  EXPECT_THROW(FlowTable(MkcConfig{}, GammaConfig{}, zoo), std::invalid_argument);
}

}  // namespace
}  // namespace pels
