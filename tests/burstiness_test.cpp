// Tests for the burst-length analyzer and the playout-deadline evaluator.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/burstiness.h"
#include "queue/best_effort.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "video/playout.h"
#include "pop_packet.h"

namespace pels {
namespace {

Packet make_packet(std::uint64_t uid, FlowId flow, Color color, std::int32_t size = 500) {
  Packet p;
  p.uid = uid;
  p.flow = flow;
  p.color = color;
  p.size_bytes = size;
  return p;
}

// ---------------------------------------------------------- BurstAnalyzer

TEST(BurstAnalyzerTest, CountsBursts) {
  BurstAnalyzer b;
  for (bool lost : {false, true, true, false, true, false, false, true}) b.add(lost);
  b.finish();
  ASSERT_EQ(b.burst_count(), 3u);
  EXPECT_EQ(b.burst_lengths()[0], 2);
  EXPECT_EQ(b.burst_lengths()[1], 1);
  EXPECT_EQ(b.burst_lengths()[2], 1);
  EXPECT_EQ(b.packets_seen(), 8);
  EXPECT_EQ(b.packets_lost(), 4);
  EXPECT_DOUBLE_EQ(b.loss_rate(), 0.5);
  EXPECT_DOUBLE_EQ(b.mean_burst_length(), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(b.max_burst_length(), 2.0);
}

TEST(BurstAnalyzerTest, FinishClosesTrailingBurst) {
  BurstAnalyzer b;
  b.add(true);
  b.add(true);
  EXPECT_EQ(b.burst_count(), 0u);  // still open
  b.finish();
  ASSERT_EQ(b.burst_count(), 1u);
  EXPECT_EQ(b.burst_lengths()[0], 2);
}

TEST(BurstAnalyzerTest, BernoulliLossHasGeometricBursts) {
  // i.i.d. loss at p: mean burst = 1/(1-p) and CCDF ratio ~ p (the paper's
  // "exponential tail" premise).
  Rng rng(3);
  const double p = 0.3;
  BurstAnalyzer b;
  for (int i = 0; i < 2'000'000; ++i) b.add(rng.bernoulli(p));
  b.finish();
  EXPECT_NEAR(b.mean_burst_length(), BurstAnalyzer::geometric_mean_burst(p), 0.02);
  EXPECT_NEAR(b.ccdf(1), p, 0.01);
  EXPECT_NEAR(b.ccdf(2) / b.ccdf(1), p, 0.02);
}

TEST(BurstAnalyzerTest, EmptyIsZero) {
  BurstAnalyzer b;
  b.finish();
  EXPECT_DOUBLE_EQ(b.mean_burst_length(), 0.0);
  EXPECT_DOUBLE_EQ(b.ccdf(0), 0.0);
  EXPECT_DOUBLE_EQ(b.loss_rate(), 0.0);
}

TEST(BurstAnalyzerTest, TraceReconstructionMatchesQueueBehaviour) {
  // Push yellow packets through a best-effort queue with a primed drop
  // probability; the enqueue outcome stream must show geometric bursts at
  // the queue's drop rate.
  Simulation sim;
  BestEffortQueueConfig cfg;
  cfg.video_limit = 1u << 20;
  BestEffortQueue q(sim.scheduler(), sim.make_rng(9), cfg);
  // Prime the meter: one interval at ~2.5x the video capacity.
  for (std::uint64_t i = 0; i < 40; ++i) q.enqueue(make_packet(i, 1, Color::kYellow));
  sim.run_until(from_millis(31));
  const double p_drop = std::max(q.current_fgs_loss(), 0.0);
  ASSERT_GT(p_drop, 0.3);
  BurstAnalyzer b;
  for (std::uint64_t i = 100; i < 40'100; ++i) {
    b.add(!q.enqueue(make_packet(i, 1, Color::kYellow)));
    pop_packet(q);
  }
  b.finish();
  ASSERT_EQ(b.packets_seen(), 40'000);
  EXPECT_NEAR(b.loss_rate(), p_drop, 0.02);
  EXPECT_NEAR(b.mean_burst_length(), BurstAnalyzer::geometric_mean_burst(b.loss_rate()),
              0.1);
}

// -------------------------------------------------------- evaluate_playout

std::vector<FrameArrival> regular_arrivals(std::int64_t n, SimTime period, SimTime jitter = 0) {
  // Jitter hits frames 1, 4, 7, ... — never frame 0, which anchors the
  // playback clock.
  std::vector<FrameArrival> arrivals;
  for (std::int64_t f = 0; f < n; ++f)
    arrivals.push_back({f, kSecond + f * period + (f % 3 == 1 ? jitter : 0), true});
  return arrivals;
}

TEST(PlayoutTest, PunctualStreamAllOnTime) {
  const auto arrivals = regular_arrivals(100, from_millis(100));
  const PlayoutReport report = evaluate_playout(arrivals, from_millis(100), 0);
  EXPECT_EQ(report.frames_total, 100);
  EXPECT_EQ(report.frames_on_time, 100);
  EXPECT_EQ(report.frames_late, 0);
  EXPECT_EQ(report.required_startup, 0);
}

TEST(PlayoutTest, JitterRequiresStartupDelay) {
  const SimTime jitter = from_millis(40);
  const auto arrivals = regular_arrivals(100, from_millis(100), jitter);
  const PlayoutReport no_buffer = evaluate_playout(arrivals, from_millis(100), 0);
  EXPECT_GT(no_buffer.frames_late, 0);
  EXPECT_EQ(no_buffer.max_lateness, jitter);
  EXPECT_EQ(no_buffer.required_startup, jitter);
  const PlayoutReport buffered = evaluate_playout(arrivals, from_millis(100), jitter);
  EXPECT_EQ(buffered.frames_late, 0);
}

TEST(PlayoutTest, UndecodableFramesAreAlwaysLate) {
  auto arrivals = regular_arrivals(10, from_millis(100));
  arrivals[4].decodable = false;
  const PlayoutReport report = evaluate_playout(arrivals, from_millis(100), kSecond);
  EXPECT_EQ(report.frames_late, 1);
  EXPECT_EQ(report.frames_on_time, 9);
}

TEST(PlayoutTest, PlaybackClockStartsAtFirstDecodable) {
  // First two frames undecodable: frame 2 anchors the schedule.
  std::vector<FrameArrival> arrivals = {{0, kSecond, false},
                                        {1, 2 * kSecond, false},
                                        {2, 3 * kSecond, true},
                                        {3, 3 * kSecond + from_millis(90), true}};
  const PlayoutReport report = evaluate_playout(arrivals, from_millis(100), 0);
  EXPECT_EQ(report.frames_late, 2);   // the undecodable ones
  EXPECT_EQ(report.frames_on_time, 2);
}

TEST(PlayoutTest, EmptyAndAllUndecodable) {
  EXPECT_EQ(evaluate_playout({}, from_millis(100), 0).frames_total, 0);
  std::vector<FrameArrival> bad = {{0, kSecond, false}, {1, 2 * kSecond, false}};
  const PlayoutReport report = evaluate_playout(bad, from_millis(100), 0);
  EXPECT_EQ(report.frames_total, 2);
  EXPECT_EQ(report.frames_late, 2);
}

}  // namespace
}  // namespace pels
