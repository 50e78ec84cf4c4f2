// Tests for src/video: frame planning, packetization, the gamma control law
// (eq. (4), run on a FlowTable slot), the synthetic R-D model, and the
// consecutive-prefix decoder.
#include <gtest/gtest.h>

#include <cmath>

#include "cc/flow_table.h"
#include "util/rng.h"
#include "util/stats.h"
#include "video/decoder.h"
#include "video/fgs.h"
#include "video/gamma_controller.h"
#include "video/rd_model.h"

namespace pels {
namespace {

VideoConfig test_video() {
  VideoConfig v;
  v.fps = 10.0;
  v.packet_size_bytes = 500;
  v.max_frame_bytes = 63'000;
  v.base_layer_bytes = 1'600;
  v.total_frames = 400;
  return v;
}

// ------------------------------------------------------------ VideoConfig

TEST(VideoConfigTest, DerivedQuantities) {
  const VideoConfig v = test_video();
  EXPECT_EQ(v.frame_period(), from_millis(100));
  EXPECT_EQ(v.max_fgs_bytes(), 61'400);
  EXPECT_DOUBLE_EQ(v.base_layer_rate_bps(), 128e3);
}

// ------------------------------------------------------------- plan_frame

TEST(PlanFrameTest, BudgetSplitsAcrossLayers) {
  const VideoConfig v = test_video();
  // 1 mb/s at 10 fps = 12,500 B per frame; 1,600 base + 10,900 FGS.
  const FramePlan plan = plan_frame(v, 3, 1e6, 0.3);
  EXPECT_EQ(plan.frame_id, 3);
  EXPECT_EQ(plan.base_bytes, 1'600);
  EXPECT_EQ(plan.fgs_bytes(), 10'900);
  EXPECT_EQ(plan.red_bytes, std::llround(0.3 * 10'900));
  EXPECT_EQ(plan.yellow_bytes + plan.red_bytes, 10'900);
  EXPECT_EQ(plan.total_bytes(), 12'500);
}

TEST(PlanFrameTest, BaseLayerAlwaysIncluded) {
  const VideoConfig v = test_video();
  // Rate below the base-layer rate: FGS gets nothing, base stays whole.
  const FramePlan plan = plan_frame(v, 0, 64e3, 0.5);
  EXPECT_EQ(plan.base_bytes, 1'600);
  EXPECT_EQ(plan.fgs_bytes(), 0);
}

TEST(PlanFrameTest, FgsCappedAtCodedSize) {
  const VideoConfig v = test_video();
  const FramePlan plan = plan_frame(v, 0, 100e6, 0.5);  // absurdly high rate
  EXPECT_EQ(plan.fgs_bytes(), v.max_fgs_bytes());
}

TEST(PlanFrameTest, GammaExtremes) {
  const VideoConfig v = test_video();
  const FramePlan all_yellow = plan_frame(v, 0, 1e6, 0.0);
  EXPECT_EQ(all_yellow.red_bytes, 0);
  EXPECT_GT(all_yellow.yellow_bytes, 0);
  const FramePlan all_red = plan_frame(v, 0, 1e6, 1.0);
  EXPECT_EQ(all_red.yellow_bytes, 0);
  EXPECT_GT(all_red.red_bytes, 0);
}

TEST(PlanFrameTest, UnpartitionedSendsAllYellow) {
  const VideoConfig v = test_video();
  const FramePlan plan = plan_frame(v, 0, 1e6, 0.7, /*partition=*/false);
  EXPECT_EQ(plan.red_bytes, 0);
  EXPECT_EQ(plan.yellow_bytes, 10'900);
}

// -------------------------------------------------------------- packetize

TEST(PacketizeTest, SegmentsAndOffsets) {
  const VideoConfig v = test_video();
  FramePlan plan;
  plan.frame_id = 5;
  plan.base_bytes = 1'600;
  plan.yellow_bytes = 1'200;
  plan.red_bytes = 700;
  const auto pkts = packetize(v, plan);
  // base: 500+500+500+100; yellow: 500+500+200; red: 500+200.
  ASSERT_EQ(pkts.size(), 9u);
  std::int64_t base = 0, yellow = 0, red = 0;
  for (const auto& p : pkts) {
    EXPECT_EQ(p.frame_id, 5);
    EXPECT_LE(p.size_bytes, 500);
    EXPECT_GT(p.size_bytes, 0);
    switch (p.color) {
      case Color::kGreen:
        base += p.size_bytes;
        EXPECT_EQ(p.frame_offset, -1);
        break;
      case Color::kYellow:
        EXPECT_EQ(p.frame_offset, yellow);
        yellow += p.size_bytes;
        break;
      case Color::kRed:
        EXPECT_EQ(p.frame_offset, plan.yellow_bytes + red);
        red += p.size_bytes;
        break;
      default:
        FAIL() << "unexpected colour";
    }
  }
  EXPECT_EQ(base, plan.base_bytes);
  EXPECT_EQ(yellow, plan.yellow_bytes);
  EXPECT_EQ(red, plan.red_bytes);
}

TEST(PacketizeTest, RedContinuesYellowOffsets) {
  // The red segment's first byte offset equals yellow_bytes: together they
  // tile the FGS prefix with no gap and no overlap.
  const VideoConfig v = test_video();
  const FramePlan plan = plan_frame(v, 0, 2e6, 0.4);
  const auto pkts = packetize(v, plan);
  std::vector<std::pair<std::int32_t, std::int32_t>> chunks;
  for (const auto& p : pkts)
    if (p.color != Color::kGreen) chunks.emplace_back(p.frame_offset, p.size_bytes);
  EXPECT_EQ(FgsDecoder::useful_prefix(chunks), plan.fgs_bytes());
}

TEST(PacketizeTest, EmptyFgsProducesOnlyBasePackets) {
  const VideoConfig v = test_video();
  const FramePlan plan = plan_frame(v, 0, 100e3, 0.5);
  const auto pkts = packetize(v, plan);
  ASSERT_EQ(pkts.size(), 4u);  // 1600 B = 3x500 + 100
  for (const auto& p : pkts) EXPECT_EQ(p.color, Color::kGreen);
}

// ------------------------------------------ gamma control (eq. (4))
// A flow's gamma lives in a FlowTable slot; apply_gamma runs one eq. (4) step.

TEST(GammaControllerTest, ConvergesToFixedPoint) {
  GammaConfig cfg;
  cfg.sigma = 0.5;
  cfg.p_thr = 0.75;
  FlowTable t(MkcConfig{}, cfg);
  const FlowSlot g = t.add_flow();
  for (int i = 0; i < 100; ++i) t.apply_gamma(g, 0.15);
  EXPECT_NEAR(t.gamma(g), 0.15 / 0.75, 1e-6);
}

TEST(GammaControllerTest, FixedPointMakesRedLossEqualThreshold) {
  // At gamma* = p/p_thr, red loss p/gamma* = p_thr (Lemma 4).
  GammaConfig cfg;
  FlowTable t(MkcConfig{}, cfg);
  const FlowSlot g = t.add_flow();
  const double p = 0.3;
  for (int i = 0; i < 200; ++i) t.apply_gamma(g, p);
  EXPECT_NEAR(p / t.gamma(g), cfg.p_thr, 1e-6);
}

TEST(GammaControllerTest, DropsToFloorWithoutLoss) {
  GammaConfig cfg;
  cfg.gamma_low = 0.05;
  FlowTable t(MkcConfig{}, cfg);
  const FlowSlot g = t.add_flow();
  for (int i = 0; i < 100; ++i) t.apply_gamma(g, 0.0);
  EXPECT_DOUBLE_EQ(t.gamma(g), 0.05);
}

TEST(GammaControllerTest, ClampsAtCeiling) {
  GammaConfig cfg;
  cfg.gamma_high = 0.95;
  FlowTable t(MkcConfig{}, cfg);
  const FlowSlot g = t.add_flow();
  for (int i = 0; i < 100; ++i) t.apply_gamma(g, 1.0);  // p/p_thr = 1.33 > ceiling
  EXPECT_DOUBLE_EQ(t.gamma(g), 0.95);
}

TEST(GammaControllerTest, TracksLossChanges) {
  FlowTable t(MkcConfig{}, GammaConfig{});
  const FlowSlot g = t.add_flow();
  for (int i = 0; i < 100; ++i) t.apply_gamma(g, 0.07);
  const double low = t.gamma(g);
  for (int i = 0; i < 100; ++i) t.apply_gamma(g, 0.14);
  EXPECT_NEAR(t.gamma(g), 2.0 * low, 1e-3);
}

TEST(GammaControllerTest, StabilityPredicate) {
  EXPECT_FALSE(is_stable_gain(0.0));
  EXPECT_TRUE(is_stable_gain(0.5));
  EXPECT_TRUE(is_stable_gain(1.99));
  EXPECT_FALSE(is_stable_gain(2.0));
  EXPECT_FALSE(is_stable_gain(3.0));
  EXPECT_FALSE(is_stable_gain(-0.5));
}

TEST(GammaControllerTest, PureIterateMatchesLemma) {
  // One step of eq. (4) by hand.
  EXPECT_DOUBLE_EQ(gamma_iterate(0.5, 0.15, 0.5, 0.75), 0.5 + 0.5 * (0.2 - 0.5));
}

TEST(GammaControllerTest, StationaryGammaClamped) {
  GammaConfig cfg;
  cfg.gamma_low = 0.05;
  cfg.gamma_high = 0.95;
  EXPECT_DOUBLE_EQ(stationary_gamma(cfg, 0.0), 0.05);
  EXPECT_NEAR(stationary_gamma(cfg, 0.15), 0.2, 1e-9);
  EXPECT_DOUBLE_EQ(stationary_gamma(cfg, 0.9), 0.95);
}

// ---------------------------------------------------------------- RdModel

TEST(RdModelTest, PsnrMonotoneInUsefulBytes) {
  RdModel rd;
  double prev = -1e9;
  for (std::int64_t bytes : {0L, 1000L, 5000L, 20000L, 61400L}) {
    const double q = rd.psnr(10, bytes);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST(RdModelTest, ZeroBytesEqualsBasePsnr) {
  RdModel rd;
  for (std::int64_t f : {0L, 50L, 399L}) EXPECT_DOUBLE_EQ(rd.psnr(f, 0), rd.base_psnr(f));
}

TEST(RdModelTest, FullEnhancementGainNearConfigured) {
  RdModelConfig cfg;
  RdModel rd(cfg);
  RunningStats gain;
  for (std::int64_t f = 0; f < cfg.total_frames; ++f)
    gain.add(rd.psnr(f, cfg.max_fgs_bytes) - rd.base_psnr(f));
  EXPECT_NEAR(gain.mean(), cfg.max_gain_db, cfg.max_gain_db * 0.2);
}

TEST(RdModelTest, GainIsConcave) {
  // The first half of the bytes must buy more dB than the second half.
  RdModel rd;
  const std::int64_t half = 61'400 / 2;
  const double first_half = rd.psnr(0, half) - rd.psnr(0, 0);
  const double second_half = rd.psnr(0, 61'400) - rd.psnr(0, half);
  EXPECT_GT(first_half, 2.0 * second_half);
}

TEST(RdModelTest, DeterministicAcrossInstances) {
  RdModel a, b;
  for (std::int64_t f = 0; f < 400; f += 37) {
    EXPECT_DOUBLE_EQ(a.base_psnr(f), b.base_psnr(f));
    EXPECT_DOUBLE_EQ(a.psnr(f, 10'000), b.psnr(f, 10'000));
  }
}

TEST(RdModelTest, BasePsnrStaysInPlausibleRange) {
  RdModel rd;
  for (std::int64_t f = 0; f < 400; ++f) {
    const double q = rd.base_psnr(f);
    EXPECT_GT(q, 20.0);
    EXPECT_LT(q, 40.0);
  }
}

TEST(RdModelTest, ConcealmentWellBelowBase) {
  RdModel rd;
  for (std::int64_t f = 0; f < 400; f += 50)
    EXPECT_LT(rd.concealment_psnr() + 5.0, rd.base_psnr(f));
}

// ------------------------------------------------------------- FgsDecoder

TEST(UsefulPrefixTest, FullCoverage) {
  EXPECT_EQ(FgsDecoder::useful_prefix({{0, 500}, {500, 500}, {1000, 500}}), 1500);
}

TEST(UsefulPrefixTest, GapEndsPrefix) {
  EXPECT_EQ(FgsDecoder::useful_prefix({{0, 500}, {1000, 500}}), 500);
}

TEST(UsefulPrefixTest, MissingFirstChunkMeansNothingUseful) {
  EXPECT_EQ(FgsDecoder::useful_prefix({{500, 500}, {1000, 500}}), 0);
}

TEST(UsefulPrefixTest, UnorderedChunksAreSorted) {
  EXPECT_EQ(FgsDecoder::useful_prefix({{1000, 500}, {0, 500}, {500, 500}}), 1500);
}

TEST(UsefulPrefixTest, OverlapsTolerated) {
  EXPECT_EQ(FgsDecoder::useful_prefix({{0, 600}, {500, 500}}), 1000);
}

TEST(UsefulPrefixTest, EmptyIsZero) { EXPECT_EQ(FgsDecoder::useful_prefix({}), 0); }

TEST(FgsDecoderTest, IntactFrameScoresFullPsnr) {
  RdModel rd;
  FgsDecoder dec(rd);
  FrameReception rx;
  rx.frame_id = 7;
  rx.base_bytes_expected = 1600;
  rx.base_bytes_received = 1600;
  rx.fgs_chunks = {{0, 500}, {500, 500}};
  const FrameQuality q = dec.decode(rx);
  EXPECT_TRUE(q.base_ok);
  EXPECT_EQ(q.useful_fgs_bytes, 1000);
  EXPECT_EQ(q.received_fgs_bytes, 1000);
  EXPECT_DOUBLE_EQ(q.utility, 1.0);
  EXPECT_DOUBLE_EQ(q.psnr_db, rd.psnr(7, 1000));
}

TEST(FgsDecoderTest, GapWastesTailBytes) {
  RdModel rd;
  FgsDecoder dec(rd);
  FrameReception rx;
  rx.frame_id = 7;
  rx.base_bytes_expected = 1600;
  rx.base_bytes_received = 1600;
  rx.fgs_chunks = {{0, 500}, {1000, 500}, {1500, 500}};  // gap at 500
  const FrameQuality q = dec.decode(rx);
  EXPECT_EQ(q.useful_fgs_bytes, 500);
  EXPECT_EQ(q.received_fgs_bytes, 1500);
  EXPECT_NEAR(q.utility, 1.0 / 3.0, 1e-9);
}

TEST(FgsDecoderTest, LostBaseLayerCollapsesToConcealment) {
  RdModel rd;
  FgsDecoder dec(rd);
  FrameReception rx;
  rx.frame_id = 7;
  rx.base_bytes_expected = 1600;
  rx.base_bytes_received = 1100;  // one base packet lost
  rx.fgs_chunks = {{0, 500}};
  const FrameQuality q = dec.decode(rx);
  EXPECT_FALSE(q.base_ok);
  EXPECT_DOUBLE_EQ(q.psnr_db, rd.concealment_psnr());
}

TEST(FgsDecoderTest, NoFgsDataIsVacuouslyUseful) {
  RdModel rd;
  FgsDecoder dec(rd);
  FrameReception rx;
  rx.frame_id = 0;
  rx.base_bytes_expected = 1600;
  rx.base_bytes_received = 1600;
  const FrameQuality q = dec.decode(rx);
  EXPECT_DOUBLE_EQ(q.utility, 1.0);
  EXPECT_DOUBLE_EQ(q.psnr_db, rd.base_psnr(0));
}

// -------------------------- property sweep: utility under random loss ----

class UtilitySweep : public ::testing::TestWithParam<double> {};

TEST_P(UtilitySweep, DecoderMatchesClosedFormUtility) {
  // Drop packets of an H-packet frame i.i.d. with probability p; decoded
  // utility must match eq. (3) in expectation.
  const double p = GetParam();
  const std::int64_t H = 100;
  const std::int32_t pkt = 500;
  Rng rng(1234);
  RdModel rd;
  FgsDecoder dec(rd);
  RunningStats useful;
  for (int trial = 0; trial < 4000; ++trial) {
    FrameReception rx;
    rx.frame_id = 0;
    rx.base_bytes_expected = 0;
    for (std::int64_t i = 0; i < H; ++i)
      if (!rng.bernoulli(p))
        rx.fgs_chunks.emplace_back(static_cast<std::int32_t>(i) * pkt, pkt);
    useful.add(static_cast<double>(dec.decode(rx).useful_fgs_bytes) / pkt);
  }
  const double expected = (1.0 - p) / p * (1.0 - std::pow(1.0 - p, H));
  EXPECT_NEAR(useful.mean(), expected, std::max(0.05 * expected, 0.5));
}

INSTANTIATE_TEST_SUITE_P(LossGrid, UtilitySweep,
                         ::testing::Values(0.01, 0.05, 0.1, 0.2, 0.5));

}  // namespace
}  // namespace pels
