// FlowTable unit tests: slot lifecycle, config validation, and the
// bit-for-bit equivalence of the population tick and per-slot apply_* calls
// (the determinism contract stated in cc/flow_table.h).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
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
    all.apply_feedback_all(p, p_fgs, 0);
    for (FlowSlot slot = 0; slot < each.capacity(); ++slot) {
      if (!each.is_live(slot)) continue;
      each.apply_feedback(slot, p, 0);
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

// Every config the table holds is validated at construction, in any build
// type: a bad gain throws instead of slipping past a compiled-out assert.
TEST(FlowTableTest, DefaultConfigsAreAccepted) {
  EXPECT_NO_THROW(MkcConfig{}.validate());
  EXPECT_NO_THROW(GammaConfig{}.validate());
  EXPECT_NO_THROW(CubicConfig{}.validate());
  EXPECT_NO_THROW(DcqcnConfig{}.validate());
  EXPECT_NO_THROW(SwiftConfig{}.validate());
  EXPECT_NO_THROW(ScreamLiteConfig{}.validate());
  EXPECT_NO_THROW(AimdConfig{}.validate());
  EXPECT_NO_THROW(TfrcLiteConfig{}.validate());
  EXPECT_NO_THROW(KellyClassicConfig{}.validate());
  EXPECT_NO_THROW(RemControllerConfig{}.validate());
  EXPECT_NO_THROW(FlowTable(MkcConfig{}, GammaConfig{}, CcZooConfig{}));
}

TEST(FlowTableTest, MkcConfigRejectsUnstableBeta) {
  MkcConfig cfg;
  cfg.beta = 2.0;  // outside Lemma 5's stability region
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(FlowTable(cfg, GammaConfig{}), std::invalid_argument);
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

// AIMD, TFRC-lite, Kelly-classic and REM are validated with the rest of the
// zoo: one row per rejected field, each naming its field in the message.
struct ZooFieldCase {
  const char* name;   // gtest-safe row name
  const char* field;  // must appear in the exception message
  void (*break_it)(CcZooConfig&);
};

// Names each case by its row in test listings.
void PrintTo(const ZooFieldCase& row, std::ostream* os) { *os << row.name; }

class ZooConfigFieldTest : public ::testing::TestWithParam<ZooFieldCase> {};

TEST_P(ZooConfigFieldTest, RejectsFieldByName) {
  CcZooConfig zoo;
  GetParam().break_it(zoo);
  try {
    FlowTable table(MkcConfig{}, GammaConfig{}, zoo);
    FAIL() << "accepted a bad " << GetParam().field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().field), std::string::npos) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AimdTfrcKellyRem, ZooConfigFieldTest,
    ::testing::Values(
        ZooFieldCase{"AimdIncrease", "increase_bps",
                     [](CcZooConfig& z) { z.aimd.increase_bps = 0.0; }},
        ZooFieldCase{"AimdDecreaseFactor", "decrease_factor",
                     [](CcZooConfig& z) { z.aimd.decrease_factor = 1.5; }},
        ZooFieldCase{"AimdRates", "min_rate_bps",
                     [](CcZooConfig& z) { z.aimd.min_rate_bps = 0.0; }},
        ZooFieldCase{"AimdBackoffGuard", "backoff_guard",
                     [](CcZooConfig& z) { z.aimd.backoff_guard = -1; }},
        ZooFieldCase{"TfrcPacketSize", "packet_size_bytes",
                     [](CcZooConfig& z) { z.tfrc.packet_size_bytes = 0.0; }},
        ZooFieldCase{"TfrcRates", "initial_rate_bps",
                     [](CcZooConfig& z) { z.tfrc.initial_rate_bps = 2e9; }},
        ZooFieldCase{"TfrcLossEwma", "loss_ewma",
                     [](CcZooConfig& z) { z.tfrc.loss_ewma = 0.0; }},
        ZooFieldCase{"TfrcInitialRtt", "initial_rtt",
                     [](CcZooConfig& z) { z.tfrc.initial_rtt = 0; }},
        ZooFieldCase{"KellyKappa", "kappa", [](CcZooConfig& z) { z.kelly.kappa = -1.0; }},
        ZooFieldCase{"KellyWillingness", "willingness_bps",
                     [](CcZooConfig& z) { z.kelly.willingness_bps = 0.0; }},
        ZooFieldCase{"KellyRates", "min_rate_bps",
                     [](CcZooConfig& z) { z.kelly.min_rate_bps = -1.0; }},
        ZooFieldCase{"RemKappa", "kappa", [](CcZooConfig& z) { z.rem.kappa = 0.0; }},
        ZooFieldCase{"RemWillingness", "willingness",
                     [](CcZooConfig& z) { z.rem.willingness = -1.0; }},
        ZooFieldCase{"RemPhi", "phi", [](CcZooConfig& z) { z.rem.phi = 1.0; }},
        ZooFieldCase{"RemRates", "max_rate_bps",
                     [](CcZooConfig& z) { z.rem.max_rate_bps = 1e3; }}),
    [](const ::testing::TestParamInfo<ZooFieldCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace pels
