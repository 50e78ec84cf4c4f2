// Tests for the R-D-aware constant-quality allocator (the paper's [5]
// extension) and its integration into the PELS source.
#include <gtest/gtest.h>

#include <numeric>

#include "pels/scenario.h"
#include "util/stats.h"
#include "video/rd_allocator.h"
#include "video/rd_model.h"

namespace pels {
namespace {

TEST(RdAllocatorTest, SpendsExactlyTheBudget) {
  RdModel rd;
  RdAllocator alloc(rd);
  const std::int64_t budget = 80'000;
  const auto xs = alloc.allocate(0, 8, budget, 61'400);
  ASSERT_EQ(xs.size(), 8u);
  EXPECT_EQ(std::accumulate(xs.begin(), xs.end(), std::int64_t{0}), budget);
  for (auto x : xs) {
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 61'400);
  }
}

TEST(RdAllocatorTest, BudgetBeyondCapsIsClipped) {
  RdModel rd;
  RdAllocator alloc(rd);
  const auto xs = alloc.allocate(0, 4, 10'000'000, 61'400);
  for (auto x : xs) EXPECT_EQ(x, 61'400);
}

TEST(RdAllocatorTest, ZeroBudgetGivesZeros) {
  RdModel rd;
  RdAllocator alloc(rd);
  for (auto x : alloc.allocate(0, 4, 0, 61'400)) EXPECT_EQ(x, 0);
}

TEST(RdAllocatorTest, EqualizesPsnrAcrossFrames) {
  // Pick a window spanning the high-motion pan (frames 300+) and quiet start:
  // per-frame complexity differs, so constant-byte allocation has a PSNR
  // spread; max-min allocation must flatten it.
  RdModel rd;
  RdAllocator alloc(rd);
  const std::int64_t first = 280;
  const int frames = 12;
  const std::int64_t budget = 12 * 15'000;

  const auto xs = alloc.allocate(first, frames, budget, 61'400);
  const auto levels = alloc.psnr_under(first, xs);
  RunningStats rd_aware;
  for (double v : levels) rd_aware.add(v);

  std::vector<std::int64_t> flat(static_cast<std::size_t>(frames), budget / frames);
  const auto flat_levels = alloc.psnr_under(first, flat);
  RunningStats constant;
  for (double v : flat_levels) constant.add(v);

  EXPECT_LT(rd_aware.max() - rd_aware.min(), 0.5 * (constant.max() - constant.min()));
  // Equal budgets: mean quality must not collapse to buy the flatness.
  EXPECT_GT(rd_aware.mean(), constant.mean() - 0.5);
}

TEST(RdAllocatorTest, HarderFramesGetMoreBytes) {
  RdModel rd;
  RdAllocator alloc(rd);
  // Frame 380 is deep in the pan (high complexity, low base PSNR); frame 20
  // is the quiet opening. A window containing both must favour the former.
  const auto xs = alloc.allocate(375, 10, 10 * 12'000, 61'400);
  const auto levels = alloc.psnr_under(375, xs);
  // All unpinned frames sit at (nearly) the same level.
  RunningStats s;
  for (std::size_t i = 0; i < levels.size(); ++i)
    if (xs[i] > 0 && xs[i] < 61'400) s.add(levels[i]);
  ASSERT_GE(s.count(), 2u);
  EXPECT_LT(s.max() - s.min(), 0.25);
}

TEST(RdAllocatorTest, SingleFrameWindowTakesWholeBudget) {
  RdModel rd;
  RdAllocator alloc(rd);
  const auto xs = alloc.allocate(5, 1, 9'999, 61'400);
  ASSERT_EQ(xs.size(), 1u);
  EXPECT_EQ(xs[0], 9'999);
}

// ------------------------------------------------------- full-stack effect

TEST(RdAllocatorIntegration, SmoothsPsnrWithoutCostingMeanQuality) {
  auto run = [](bool rd_aware) {
    ScenarioConfig cfg;
    cfg.pels_flows = 2;
    cfg.tcp_flows = 3;
    cfg.seed = 7;
    cfg.rd_aware_scaling = rd_aware;
    DumbbellScenario s(cfg);
    s.run_until(42 * kSecond);
    s.finish();
    SampleSet psnr;
    for (const auto& q : s.sink(0).quality_for_frames(50, 400)) psnr.add(q.psnr_db);
    return psnr;
  };
  const SampleSet constant = run(false);
  const SampleSet rd_aware = run(true);
  const double constant_spread = constant.quantile(0.95) - constant.quantile(0.05);
  const double rd_spread = rd_aware.quantile(0.95) - rd_aware.quantile(0.05);
  EXPECT_LT(rd_spread, constant_spread * 0.8);
  EXPECT_GT(rd_aware.mean(), constant.mean() - 0.5);
}

}  // namespace
}  // namespace pels
