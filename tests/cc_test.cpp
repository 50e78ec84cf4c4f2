// Tests for src/cc: MKC, AIMD and TFRC-lite on FlowTable slots, and the
// TCP-like cross-traffic agents.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "cc/tcp_like.h"
#include "net/topology.h"
#include "one_flow.h"
#include "queue/drop_tail.h"
#include "sim/simulation.h"
#include "util/stats.h"

namespace pels {
namespace {

// -------------------------------------------------------------------- MKC

TEST(MkcTest, PositiveLossDecreasesRate) {
  MkcConfig cfg;
  cfg.initial_rate_bps = 1e6;
  cfg.alpha_bps = 20e3;
  cfg.beta = 0.5;
  OneFlow mkc(cfg);
  mkc.feedback(0.2);
  // r' = r + alpha - beta * r * p = 1e6 + 2e4 - 0.5 * 1e6 * 0.2 = 920 kb/s.
  EXPECT_NEAR(mkc.rate_bps(), 920e3, 1.0);
}

TEST(MkcTest, NegativeLossRampsExponentially) {
  // A heavily underutilized link (deeply negative p) grows the rate by the
  // capped factor per epoch: 128 kb/s reaches 2 mb/s within four updates.
  MkcConfig cfg;
  cfg.initial_rate_bps = 128e3;
  OneFlow mkc(cfg);
  for (int i = 0; i < 4; ++i) mkc.feedback(-10.0);
  EXPECT_NEAR(mkc.rate_bps(), 128e3 * 16.0, 1.0);
}

TEST(MkcTest, GrowthCapBoundsSingleUpdate) {
  MkcConfig cfg;
  cfg.initial_rate_bps = 128e3;
  cfg.max_growth_factor = 2.0;
  OneFlow mkc(cfg);
  mkc.feedback(-100.0);
  EXPECT_DOUBLE_EQ(mkc.rate_bps(), 256e3);
}

TEST(MkcTest, FixedPointIsStationary) {
  // At p* with r* = C/N + a/b, the update must return exactly r*.
  MkcConfig cfg;
  const double capacity = 2e6;
  const int flows = 4;
  const double r_star = mkc_stationary_rate(capacity, flows, cfg);
  const double total = r_star * flows;
  const double p_star = (total - capacity) / total;
  cfg.initial_rate_bps = r_star;
  OneFlow mkc(cfg);
  mkc.feedback(p_star);
  EXPECT_NEAR(mkc.rate_bps(), r_star, r_star * 1e-9);
}

TEST(MkcTest, ConvergesToStationaryRateSingleFlow) {
  // Closed loop against the eq. (9) feedback law, one flow.
  MkcConfig cfg;
  cfg.initial_rate_bps = 128e3;
  OneFlow mkc(cfg);
  const double capacity = 2e6;
  for (int k = 0; k < 200; ++k) {
    const double total = mkc.rate_bps();
    mkc.feedback((total - capacity) / total);
  }
  EXPECT_NEAR(mkc.rate_bps(), mkc_stationary_rate(capacity, 1, cfg), 1e3);
}

TEST(MkcTest, RateClampedToBounds) {
  MkcConfig cfg;
  cfg.initial_rate_bps = 128e3;
  cfg.min_rate_bps = 64e3;
  cfg.max_rate_bps = 1e6;
  OneFlow mkc(cfg);
  mkc.feedback(0.999);  // huge loss
  for (int i = 0; i < 50; ++i) mkc.feedback(0.999);
  EXPECT_GE(mkc.rate_bps(), cfg.min_rate_bps);
  for (int i = 0; i < 200; ++i) mkc.feedback(-20.0);
  EXPECT_LE(mkc.rate_bps(), cfg.max_rate_bps);
}

TEST(MkcTest, UpdateCounterAdvances) {
  OneFlow mkc(MkcConfig{});
  EXPECT_EQ(mkc.table.mkc_updates(mkc.slot), 0u);
  mkc.feedback(0.0);
  mkc.feedback(0.1);
  EXPECT_EQ(mkc.table.mkc_updates(mkc.slot), 2u);
}

TEST(MkcTest, StationaryRateFormula) {
  MkcConfig cfg;
  cfg.alpha_bps = 20e3;
  cfg.beta = 0.5;
  // C/N + a/b = 2e6/2 + 4e4 = 1.04 mb/s (paper Fig. 9: ~1 mb/s per flow).
  EXPECT_DOUBLE_EQ(mkc_stationary_rate(2e6, 2, cfg), 1.04e6);
}

// ------------------------------------------------------------------- AIMD

TEST(AimdTest, AdditiveIncreaseWithoutCongestion) {
  AimdConfig cfg;
  cfg.initial_rate_bps = 500e3;
  cfg.increase_bps = 20e3;
  OneFlow aimd(CcKind::kAimd, {.aimd = cfg});
  aimd.feedback(-1.0, 0);
  aimd.feedback(0.0, kMillisecond);
  EXPECT_DOUBLE_EQ(aimd.rate_bps(), 540e3);
}

TEST(AimdTest, MultiplicativeDecreaseOnCongestion) {
  AimdConfig cfg;
  cfg.initial_rate_bps = 1e6;
  cfg.decrease_factor = 0.5;
  OneFlow aimd(CcKind::kAimd, {.aimd = cfg});
  aimd.feedback(0.1, kSecond);
  EXPECT_DOUBLE_EQ(aimd.rate_bps(), 500e3);
  EXPECT_EQ(aimd.table.aimd_decreases(aimd.slot), 1);
}

TEST(AimdTest, BackoffGuardLimitsDecreaseFrequency) {
  AimdConfig cfg;
  cfg.initial_rate_bps = 1e6;
  cfg.backoff_guard = from_millis(100);
  OneFlow aimd(CcKind::kAimd, {.aimd = cfg});
  aimd.feedback(0.1, kSecond);
  aimd.feedback(0.1, kSecond + from_millis(10));  // same episode
  EXPECT_EQ(aimd.table.aimd_decreases(aimd.slot), 1);
  EXPECT_DOUBLE_EQ(aimd.rate_bps(), 500e3);
  aimd.feedback(0.1, kSecond + from_millis(200));  // new episode
  EXPECT_EQ(aimd.table.aimd_decreases(aimd.slot), 2);
}

TEST(AimdTest, OscillatesInSteadyStateUnlikeMkc) {
  // Drive AIMD and MKC against the same feedback law; AIMD's steady-state
  // rate oscillation must be much larger (the paper's §5 motivation).
  const double capacity = 2e6;
  AimdConfig acfg;
  acfg.initial_rate_bps = 128e3;
  acfg.backoff_guard = 0;
  OneFlow aimd(CcKind::kAimd, {.aimd = acfg});
  MkcConfig mcfg;
  mcfg.initial_rate_bps = 128e3;
  OneFlow mkc(mcfg);

  double aimd_min = 1e18, aimd_max = 0, mkc_min = 1e18, mkc_max = 0;
  for (int k = 0; k < 400; ++k) {
    const SimTime now = k * from_millis(30);
    const double pa = (aimd.rate_bps() - capacity) / aimd.rate_bps();
    aimd.feedback(pa, now);
    const double pm = (mkc.rate_bps() - capacity) / mkc.rate_bps();
    mkc.feedback(pm, now);
    if (k > 200) {  // steady state
      aimd_min = std::min(aimd_min, aimd.rate_bps());
      aimd_max = std::max(aimd_max, aimd.rate_bps());
      mkc_min = std::min(mkc_min, mkc.rate_bps());
      mkc_max = std::max(mkc_max, mkc.rate_bps());
    }
  }
  const double aimd_swing = (aimd_max - aimd_min) / capacity;
  const double mkc_swing = (mkc_max - mkc_min) / capacity;
  EXPECT_LT(mkc_swing, 0.01);
  EXPECT_GT(aimd_swing, 10 * mkc_swing);
}

TEST(AimdTest, RttSampleReplacesBackoffGuard) {
  AimdConfig cfg;
  cfg.initial_rate_bps = 1e6;
  cfg.backoff_guard = from_millis(100);
  OneFlow aimd(CcKind::kAimd, {.aimd = cfg});
  aimd.rtt(from_millis(20));
  aimd.feedback(0.1, kSecond);
  aimd.feedback(0.1, kSecond + from_millis(30));  // past a 20 ms guard
  EXPECT_EQ(aimd.table.aimd_decreases(aimd.slot), 2);
  EXPECT_DOUBLE_EQ(aimd.rate_bps(), 250e3);
}

// -------------------------------------------------------------- TFRC-lite

TEST(TfrcLiteTest, SlowStartBeforeFirstLoss) {
  TfrcLiteConfig cfg;
  cfg.initial_rate_bps = 128e3;
  OneFlow tfrc(CcKind::kTfrc, {.tfrc = cfg});
  tfrc.feedback(-1.0);
  EXPECT_GT(tfrc.rate_bps(), 128e3);
}

TEST(TfrcLiteTest, ResponseFunctionAfterLoss) {
  TfrcLiteConfig cfg;
  cfg.packet_size_bytes = 500;
  cfg.initial_rtt = from_millis(100);
  OneFlow tfrc(CcKind::kTfrc, {.tfrc = cfg});
  // Saturate the loss EWMA at p = 0.04.
  for (int i = 0; i < 100; ++i) tfrc.loss(0.04);
  EXPECT_NEAR(tfrc.table.tfrc_smoothed_loss(tfrc.slot), 0.04, 1e-6);
  const double expected = 500 * 8 * std::sqrt(1.5) / (0.1 * std::sqrt(0.04));
  EXPECT_NEAR(tfrc.rate_bps(), expected, expected * 0.01);
}

TEST(TfrcLiteTest, HigherLossLowersRate) {
  OneFlow a(CcKind::kTfrc);
  OneFlow b(CcKind::kTfrc);
  for (int i = 0; i < 100; ++i) {
    a.loss(0.01);
    b.loss(0.09);
  }
  // sqrt(p) law: 3x loss ratio in rate.
  EXPECT_NEAR(a.rate_bps() / b.rate_bps(), 3.0, 0.1);
}

TEST(TfrcLiteTest, LongerRttLowersRate) {
  OneFlow a(CcKind::kTfrc);
  OneFlow b(CcKind::kTfrc);
  a.rtt(from_millis(50));
  b.rtt(from_millis(200));
  for (int i = 0; i < 100; ++i) {
    a.loss(0.04);
    b.loss(0.04);
  }
  EXPECT_NEAR(a.rate_bps() / b.rate_bps(), 4.0, 0.1);
}

TEST(TfrcLiteTest, NoSlowStartAfterLossSeen) {
  OneFlow tfrc(CcKind::kTfrc);
  tfrc.loss(0.05);
  const double r = tfrc.rate_bps();
  tfrc.feedback(-5.0);  // spare capacity reported
  EXPECT_DOUBLE_EQ(tfrc.rate_bps(), r);  // but no multiplicative probe
}

TEST(TfrcLiteTest, LossFreeIntervalDecaysTheEstimate) {
  // The loss EWMA folds in clean intervals too: after a loss event, a
  // zero-loss interval shrinks the estimate and raises the rate.
  OneFlow tfrc(CcKind::kTfrc);
  tfrc.loss(0.2);
  const double smoothed = tfrc.table.tfrc_smoothed_loss(tfrc.slot);
  const double rate = tfrc.rate_bps();
  tfrc.loss(0.0);
  EXPECT_DOUBLE_EQ(tfrc.table.tfrc_smoothed_loss(tfrc.slot),
                   (1.0 - TfrcLiteConfig{}.loss_ewma) * smoothed);
  EXPECT_GT(tfrc.rate_bps(), rate);
}

// ---------------------------------------------------------------- TCP-like

struct TcpHarness {
  TcpHarness(double bottleneck_bps = 4e6, std::size_t queue_limit = 50)
      : sim(1), topo(sim) {
    Host& src = topo.add_host("src");
    Router& r1 = topo.add_router("r1");
    Host& dst = topo.add_host("dst");
    const QueueFactory fifo = [queue_limit](double) {
      return std::make_unique<DropTailQueue>(queue_limit);
    };
    topo.connect(src, r1, 10e6, from_millis(2), fifo);
    topo.connect(r1, dst, bottleneck_bps, from_millis(10), fifo);
    topo.compute_routes();
    source = std::make_unique<TcpLikeSource>(sim, src, 1, dst.id());
    sink = std::make_unique<TcpSink>(dst, 1, src.id());
  }
  Simulation sim;
  Topology topo;
  std::unique_ptr<TcpLikeSource> source;
  std::unique_ptr<TcpSink> sink;
};

TEST(TcpLikeTest, DeliversDataInOrder) {
  TcpHarness h;
  h.source->start(0);
  h.sim.run_until(2 * kSecond);
  EXPECT_GT(h.sink->cumulative_ack(), 100u);
  // ACKs still in flight at cut-off: the source can lag, never lead.
  EXPECT_LE(h.source->highest_acked(), h.sink->cumulative_ack());
  EXPECT_GT(h.source->highest_acked(), h.sink->cumulative_ack() - 50);
}

TEST(TcpLikeTest, SinkAbsorbsReorderedSegments) {
  TcpHarness h;
  auto data = [](std::uint64_t seq) {
    Packet p;
    p.flow = 1;
    p.uid = seq;
    p.seq = seq;
    p.size_bytes = 1000;
    p.color = Color::kInternet;
    return p;
  };
  TcpSink& sink = *h.sink;
  sink.on_packet(data(0));
  EXPECT_EQ(sink.cumulative_ack(), 1u);
  for (const std::uint64_t seq : {2, 3, 5}) sink.on_packet(data(seq));
  EXPECT_EQ(sink.cumulative_ack(), 1u);
  // Far above the buffered range: the reorder window widens without losing
  // the segments already held.
  sink.on_packet(data(300));
  sink.on_packet(data(3));  // duplicate
  sink.on_packet(data(1));
  EXPECT_EQ(sink.cumulative_ack(), 4u);
  sink.on_packet(data(4));
  EXPECT_EQ(sink.cumulative_ack(), 6u);
  for (std::uint64_t seq = 6; seq < 300; ++seq) sink.on_packet(data(seq));
  EXPECT_EQ(sink.cumulative_ack(), 301u);
  sink.on_packet(data(7));  // old retransmission
  EXPECT_EQ(sink.cumulative_ack(), 301u);
  // Past the wrap of the widened window, reordering still resolves.
  sink.on_packet(data(302));
  sink.on_packet(data(301));
  EXPECT_EQ(sink.cumulative_ack(), 303u);
  EXPECT_EQ(sink.packets_received(), 305u);
}

TEST(TcpLikeTest, SaturatesBottleneck) {
  TcpHarness h(4e6);
  h.source->start(0);
  h.sim.run_until(10 * kSecond);
  // Goodput should be near 4 mb/s (allowing slow-start warmup + header waste).
  EXPECT_GT(h.source->goodput_bps(h.sim.now()), 3.2e6);
  EXPECT_LT(h.source->goodput_bps(h.sim.now()), 4.1e6);
}

TEST(TcpLikeTest, LossTriggersFastRetransmit) {
  TcpHarness h(1e6, 10);  // tight queue forces drops
  h.source->start(0);
  h.sim.run_until(10 * kSecond);
  EXPECT_GT(h.source->retransmits(), 0u);
  // Despite drops, the stream keeps making progress.
  EXPECT_GT(h.sink->cumulative_ack(), 500u);
}

TEST(TcpLikeTest, CwndBoundedByQueueCapacity) {
  TcpHarness h(1e6, 10);
  h.source->start(0);
  h.sim.run_until(20 * kSecond);
  // With BDP + queue ~ 15 packets, cwnd cannot sit in the hundreds.
  EXPECT_LT(h.source->cwnd(), 100.0);
}

TEST(TcpLikeTest, TwoFlowsShareRoughlyFairly) {
  // Dumbbell: both flows cross the same r1 -> r2 bottleneck.
  Simulation sim(7);
  Topology topo(sim);
  Host& s1 = topo.add_host("s1");
  Host& s2 = topo.add_host("s2");
  Router& r1 = topo.add_router("r1");
  Router& r2 = topo.add_router("r2");
  Host& d1 = topo.add_host("d1");
  Host& d2 = topo.add_host("d2");
  const QueueFactory fifo = [](double) { return std::make_unique<DropTailQueue>(50); };
  topo.connect(s1, r1, 10e6, from_millis(2), fifo);
  topo.connect(s2, r1, 10e6, from_millis(2), fifo);
  topo.connect(r1, r2, 4e6, from_millis(10), fifo);
  topo.connect(r2, d1, 10e6, from_millis(2), fifo);
  topo.connect(r2, d2, 10e6, from_millis(2), fifo);
  topo.compute_routes();
  TcpLikeSource f1(sim, s1, 1, d1.id());
  TcpSink k1(d1, 1, s1.id());
  TcpLikeSource f2(sim, s2, 2, d2.id());
  TcpSink k2(d2, 2, s2.id());
  f1.start(0);
  f2.start(0);
  sim.run_until(30 * kSecond);
  const double g1 = f1.goodput_bps(sim.now());
  const double g2 = f2.goodput_bps(sim.now());
  const double share[] = {g1, g2};
  EXPECT_GT(jain_fairness_index(share), 0.7);
  EXPECT_NEAR(g1 + g2, 4e6, 1.2e6);
}

}  // namespace
}  // namespace pels
