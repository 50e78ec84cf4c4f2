// Parameterized property sweeps across the queueing and control substrates:
// invariants that must hold for *every* configuration in a grid, not just
// the defaults the other suites exercise.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "analysis/stability.h"
#include "cc/mkc.h"
#include "pels/scenario.h"
#include "queue/best_effort.h"
#include "queue/pels_queue.h"
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

// ------------------------------------------- WRR weight-share property

class WrrWeightSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(WrrWeightSweep, ServiceTracksWeightRatio) {
  // The comparator queue's two FIFOs under its Drr2 split; no simulated time
  // passes, so its random drop never arms.
  const auto [w0, w1] = GetParam();
  Simulation sim;
  BestEffortQueueConfig cfg;
  cfg.video_weight = w0;
  cfg.internet_weight = w1;
  cfg.video_limit = cfg.internet_limit = 100'000;
  BestEffortQueue q(sim.scheduler(), Rng(1), cfg);
  for (int i = 0; i < 60'000; ++i) {
    q.enqueue(make_packet(500, Color::kGreen));
    q.enqueue(make_packet(500, Color::kInternet));
  }
  std::int64_t bytes[2] = {0, 0};
  for (int i = 0; i < 30'000; ++i) {
    auto p = pop_packet(q);
    bytes[p->color == Color::kInternet ? 1 : 0] += p->size_bytes;
  }
  const double expected = w0 / w1;
  const double observed = static_cast<double>(bytes[0]) / static_cast<double>(bytes[1]);
  EXPECT_NEAR(observed / expected, 1.0, 0.05) << "w0=" << w0 << " w1=" << w1;
}

INSTANTIATE_TEST_SUITE_P(WeightGrid, WrrWeightSweep,
                         ::testing::Values(std::tuple{1.0, 1.0}, std::tuple{2.0, 1.0},
                                           std::tuple{1.0, 3.0}, std::tuple{5.0, 1.0},
                                           std::tuple{0.3, 0.7}, std::tuple{7.0, 3.0}));

// ----------------------------------- strict priority invariant property

class PriorityTrafficSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PriorityTrafficSweep, NeverServesLowerBandWhileHigherOccupied) {
  // Random interleaved enqueue/dequeue traffic through PelsQueue's PELS
  // group: at every dequeue, the packet must come from the highest-priority
  // non-empty band.
  Rng rng(GetParam());
  Simulation sim;
  PelsQueueConfig cfg;
  cfg.green_limit = cfg.yellow_limit = cfg.red_limit = 64;
  PelsQueue q(sim.scheduler(), cfg);
  const Color colors[] = {Color::kGreen, Color::kYellow, Color::kRed};
  std::size_t occupancy[3] = {0, 0, 0};
  for (int step = 0; step < 20'000; ++step) {
    if (rng.bernoulli(0.55)) {
      const auto band = static_cast<std::size_t>(rng.uniform_int(0, 2));
      if (occupancy[band] < 64 && q.enqueue(make_packet(100, colors[band]))) ++occupancy[band];
    } else if (auto p = pop_packet(q)) {
      const auto band = static_cast<std::size_t>(p->color);  // green 0, yellow 1, red 2
      for (std::size_t higher = 0; higher < band; ++higher) {
        ASSERT_EQ(occupancy[higher], 0u) << "served band " << band
                                         << " while band " << higher << " occupied";
      }
      --occupancy[band];
      ASSERT_EQ(q.band_packet_count(band), occupancy[band]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PriorityTrafficSweep, ::testing::Values(1u, 2u, 3u, 4u));

// -------------------------------------------- MKC gain grid, full stack

class MkcGainGrid : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(MkcGainGrid, FullStackConvergesToStationaryRate) {
  const auto [alpha, beta] = GetParam();
  ScenarioConfig cfg;
  cfg.pels_flows = 2;
  cfg.tcp_flows = 3;
  cfg.seed = 3;
  cfg.mkc.alpha_bps = alpha;
  cfg.mkc.beta = beta;
  DumbbellScenario s(cfg);
  s.run_until(30 * kSecond);
  const double r_star = mkc_stationary_rate(s.video_capacity_bps(), 2, cfg.mkc);
  const double mean = s.source(0).rate_series().mean_in(20 * kSecond, 30 * kSecond);
  // Per-epoch measurement noise biases the packetized loop as beta grows
  // (the deterministic map converges exactly for all beta < 2 —
  // analysis_test covers that). In the practical regime the full stack
  // tracks r* tightly. Beyond it the loop settles into a large limit cycle
  // (rates swing over ~2 decades around r*), so a window mean is dominated
  // by where the peaks land and is sensitive to same-timestamp event
  // ordering (DESIGN.md "Event model"); there we only require bounded
  // tracking — the cycle stays centred within a factor of two of r*.
  if (beta <= 0.5) {
    EXPECT_NEAR(mean, r_star, r_star * 0.06) << "alpha=" << alpha << " beta=" << beta;
  } else {
    EXPECT_GE(mean, r_star * 0.5) << "alpha=" << alpha << " beta=" << beta;
    EXPECT_LE(mean, r_star * 2.0) << "alpha=" << alpha << " beta=" << beta;
  }
}

INSTANTIATE_TEST_SUITE_P(Gains, MkcGainGrid,
                         ::testing::Values(std::tuple{10e3, 0.25}, std::tuple{20e3, 0.5},
                                           std::tuple{40e3, 0.5}, std::tuple{20e3, 1.0},
                                           std::tuple{50e3, 1.5}));

// ------------------------------------- gamma target grid, full stack

class GammaTargetGrid : public ::testing::TestWithParam<double> {};

TEST_P(GammaTargetGrid, RedLossTracksConfiguredThreshold) {
  const double p_thr = GetParam();
  ScenarioConfig cfg;
  cfg.pels_flows = 4;
  cfg.tcp_flows = 3;
  cfg.seed = 3;
  cfg.source.gamma.p_thr = p_thr;
  DumbbellScenario s(cfg);
  s.run_until(60 * kSecond);
  const double red_loss = s.loss_series(Color::kRed).mean_in(30 * kSecond, 60 * kSecond);
  EXPECT_NEAR(red_loss, p_thr, 0.14) << "p_thr=" << p_thr;
  EXPECT_LT(s.loss_series(Color::kYellow).mean_in(30 * kSecond, 60 * kSecond), 0.02);
}

INSTANTIATE_TEST_SUITE_P(Targets, GammaTargetGrid, ::testing::Values(0.6, 0.75, 0.9));

// ------------------------------- packetize/decode round-trip property

class PacketizeRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PacketizeRoundTrip, LosslessDeliveryDecodesWholePlan) {
  // For random rates/gammas: packetizing a plan and delivering every FGS
  // packet must always reconstruct exactly the planned FGS byte count as a
  // gap-free prefix.
  Rng rng(GetParam());
  VideoConfig video;
  for (int trial = 0; trial < 300; ++trial) {
    const double rate = rng.uniform(50e3, 6e6);
    const double gamma = rng.uniform(0.0, 1.0);
    const FramePlan plan = plan_frame(video, trial, rate, gamma);
    const auto pkts = packetize(video, plan);
    std::vector<std::pair<std::int32_t, std::int32_t>> chunks;
    std::int64_t base = 0;
    for (const auto& p : pkts) {
      if (p.color == Color::kGreen) {
        base += p.size_bytes;
      } else {
        chunks.emplace_back(p.frame_offset, p.size_bytes);
      }
    }
    ASSERT_EQ(base, plan.base_bytes);
    ASSERT_EQ(FgsDecoder::useful_prefix(chunks), plan.fgs_bytes())
        << "rate=" << rate << " gamma=" << gamma;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketizeRoundTrip, ::testing::Values(10u, 20u, 30u));

}  // namespace
}  // namespace pels
