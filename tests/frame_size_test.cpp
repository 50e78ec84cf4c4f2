// Tests for src/video/frame_size: VBR frame-size models, the packet-count
// PMF bridge to eq. (1), and VBR-aware frame planning.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/best_effort_model.h"
#include "util/stats.h"
#include "video/fgs.h"
#include "video/frame_size.h"

namespace pels {
namespace {

/// Every frame the same size: the point-mass oracle for the PMF tests.
class FixedFrameSize : public FrameSizeModel {
 public:
  explicit FixedFrameSize(std::int64_t bytes) : bytes_(bytes) {}
  std::int64_t fgs_frame_bytes(std::int64_t) const override { return bytes_; }
  const char* name() const override { return "fixed"; }

 private:
  std::int64_t bytes_;
};

// ------------------------------------------------------------ lognormal

TEST(LognormalFrameSizeTest, DeterministicPerFrame) {
  LognormalFrameSize a(40'000, 0.4, 1'000, 200'000, 7);
  LognormalFrameSize b(40'000, 0.4, 1'000, 200'000, 7);
  for (std::int64_t f = 0; f < 200; ++f)
    EXPECT_EQ(a.fgs_frame_bytes(f), b.fgs_frame_bytes(f));
}

TEST(LognormalFrameSizeTest, DifferentSeedsDiffer) {
  LognormalFrameSize a(40'000, 0.4, 1'000, 200'000, 7);
  LognormalFrameSize b(40'000, 0.4, 1'000, 200'000, 8);
  int equal = 0;
  for (std::int64_t f = 0; f < 100; ++f)
    equal += a.fgs_frame_bytes(f) == b.fgs_frame_bytes(f);
  EXPECT_LT(equal, 5);
}

TEST(LognormalFrameSizeTest, MeanMatchesTarget) {
  LognormalFrameSize m(40'000, 0.3, 0, 10'000'000, 3);
  RunningStats s;
  for (std::int64_t f = 0; f < 50'000; ++f)
    s.add(static_cast<double>(m.fgs_frame_bytes(f)));
  EXPECT_NEAR(s.mean(), 40'000.0, 1'000.0);
}

TEST(LognormalFrameSizeTest, ClampsToBounds) {
  LognormalFrameSize m(40'000, 1.5, 20'000, 60'000, 3);  // heavy tails, tight clamp
  for (std::int64_t f = 0; f < 5'000; ++f) {
    const auto v = m.fgs_frame_bytes(f);
    EXPECT_GE(v, 20'000);
    EXPECT_LE(v, 60'000);
  }
}

TEST(LognormalFrameSizeTest, ZeroSigmaIsConstant) {
  LognormalFrameSize m(40'000, 0.0, 0, 10'000'000, 3);
  for (std::int64_t f = 0; f < 100; ++f) EXPECT_EQ(m.fgs_frame_bytes(f), 40'000);
}

// ------------------------------------------------------------------ GOP

TEST(GopFrameSizeTest, IFramesLarger) {
  GopFrameSize m(60'000, 20'000, 12, 5, 0.0);  // no jitter
  for (std::int64_t f = 0; f < 48; ++f) {
    if (f % 12 == 0) {
      EXPECT_EQ(m.fgs_frame_bytes(f), 60'000);
    } else {
      EXPECT_EQ(m.fgs_frame_bytes(f), 20'000);
    }
  }
}

TEST(GopFrameSizeTest, JitterBounded) {
  GopFrameSize m(60'000, 20'000, 12, 5, 0.1);
  for (std::int64_t f = 0; f < 240; ++f) {
    const auto v = static_cast<double>(m.fgs_frame_bytes(f));
    const double base = f % 12 == 0 ? 60'000.0 : 20'000.0;
    EXPECT_GE(v, base * 0.9 - 1);
    EXPECT_LE(v, base * 1.1 + 1);
  }
}

// ------------------------------------------------------------------ PMF

TEST(FrameSizePmfTest, ConstantModelIsPointMass) {
  FixedFrameSize m(5'000);  // 10 packets of 500 B
  const auto pmf = frame_size_pmf_packets(m, 100, 500);
  ASSERT_EQ(pmf.size(), 10u);
  for (std::size_t k = 0; k < 9; ++k) EXPECT_DOUBLE_EQ(pmf[k], 0.0);
  EXPECT_DOUBLE_EQ(pmf[9], 1.0);
}

TEST(FrameSizePmfTest, PartialPacketsRoundUp) {
  FixedFrameSize m(5'001);  // 11 packets: 10 full + 1-byte tail
  const auto pmf = frame_size_pmf_packets(m, 10, 500);
  ASSERT_EQ(pmf.size(), 11u);
  EXPECT_DOUBLE_EQ(pmf[10], 1.0);
}

TEST(FrameSizePmfTest, SumsToAtMostOne) {
  LognormalFrameSize m(10'000, 0.5, 0, 50'000, 11);
  const auto pmf = frame_size_pmf_packets(m, 1'000, 500);
  double total = 0.0;
  for (double w : pmf) total += w;
  EXPECT_LE(total, 1.0 + 1e-12);
  EXPECT_GT(total, 0.99);  // zero-byte frames are rare at this clamp
}

TEST(FrameSizePmfTest, GopModelHasTwoModes) {
  GopFrameSize m(30'000, 10'000, 10, 5, 0.0);
  const auto pmf = frame_size_pmf_packets(m, 1'000, 500);
  ASSERT_EQ(pmf.size(), 60u);
  EXPECT_NEAR(pmf[19], 0.9, 1e-9);  // P frames: 20 packets
  EXPECT_NEAR(pmf[59], 0.1, 1e-9);  // I frames: 60 packets
}

// --------------------------- eq. (1) bridge: PMF-weighted useful packets

TEST(FrameSizePmfTest, EquationOneMatchesDirectAverage) {
  // E[Y] computed through eq. (1) with the empirical PMF must equal the
  // frame-by-frame average of eq. (2) over the same frames.
  LognormalFrameSize m(8'000, 0.6, 500, 40'000, 13);
  const std::int64_t frames = 2'000;
  const auto pmf = frame_size_pmf_packets(m, frames, 500);
  const double p = 0.1;
  const double via_pmf = expected_useful_packets_pmf(p, pmf);
  RunningStats direct;
  for (std::int64_t f = 0; f < frames; ++f) {
    const std::int64_t packets = (m.fgs_frame_bytes(f) + 499) / 500;
    if (packets > 0) direct.add(expected_useful_packets(p, packets));
  }
  EXPECT_NEAR(via_pmf, direct.mean(), 1e-9);
}

// ------------------------------------------------- VBR-aware frame plans

TEST(PlanFrameVbrTest, CapFollowsModel) {
  VideoConfig v;
  v.base_layer_bytes = 1'600;
  GopFrameSize m(30'000, 10'000, 10, 5, 0.0);
  // Rate budget far above either coded size: plan is capped by the model.
  for (std::int64_t f = 0; f < 20; ++f) {
    const FramePlan plan =
        plan_frame(v, f, 100e6, 0.3, true, m.fgs_frame_bytes(f));
    EXPECT_EQ(plan.fgs_bytes(), m.fgs_frame_bytes(f));
  }
}

TEST(PlanFrameVbrTest, NegativeCapMeansConfigDefault) {
  VideoConfig v;
  const FramePlan plan = plan_frame(v, 0, 100e6, 0.3, true, -1);
  EXPECT_EQ(plan.fgs_bytes(), v.max_fgs_bytes());
}

TEST(PlanFrameVbrTest, ZeroCapSendsBaseOnly) {
  VideoConfig v;
  const FramePlan plan = plan_frame(v, 0, 2e6, 0.3, true, 0);
  EXPECT_EQ(plan.fgs_bytes(), 0);
  EXPECT_EQ(plan.base_bytes, v.base_layer_bytes);
}

}  // namespace
}  // namespace pels
