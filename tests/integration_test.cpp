// Full-stack integration tests: PELS sources/sinks + priority AQM + MKC over
// the bar-bell topology, validating the paper's §6 claims end to end.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>

#include "analysis/stability.h"
#include "pels/metrics.h"
#include "pels/scenario.h"
#include "util/stats.h"

namespace pels {
namespace {

ScenarioConfig base_config(int flows) {
  ScenarioConfig cfg;
  cfg.pels_flows = flows;
  cfg.tcp_flows = 1;
  cfg.seed = 7;
  return cfg;
}

// ------------------------------------------------------ MKC convergence

TEST(IntegrationMkc, SingleFlowConvergesToPelsCapacity) {
  ScenarioConfig cfg = base_config(1);
  DumbbellScenario s(cfg);
  s.run_until(20 * kSecond);
  // r* = C + alpha/beta = 2 mb/s + 40 kb/s.
  const double r_star = mkc_stationary_rate(s.video_capacity_bps(), 1, cfg.mkc);
  EXPECT_NEAR(s.source(0).rate_bps(), r_star, r_star * 0.05);
}

TEST(IntegrationMkc, TwoFlowsConvergeToFairShare) {
  // Fig. 9 (right): two flows at ~1 mb/s each (C/N + alpha/beta = 1.04 mb/s).
  ScenarioConfig cfg = base_config(2);
  cfg.start_times = {0, 10 * kSecond};
  DumbbellScenario s(cfg);
  s.run_until(40 * kSecond);
  const double r_star = mkc_stationary_rate(s.video_capacity_bps(), 2, cfg.mkc);
  EXPECT_NEAR(s.source(0).rate_bps(), r_star, r_star * 0.08);
  EXPECT_NEAR(s.source(1).rate_bps(), r_star, r_star * 0.08);
  const double shares[] = {s.source(0).rate_bps(), s.source(1).rate_bps()};
  EXPECT_GT(jain_fairness_index(shares), 0.999);
}

TEST(IntegrationMkc, FirstFlowYieldsWhenSecondJoins) {
  ScenarioConfig cfg = base_config(2);
  cfg.start_times = {0, 10 * kSecond};
  DumbbellScenario s(cfg);
  s.run_until(9 * kSecond);
  const double solo = s.source(0).rate_bps();
  s.run_until(40 * kSecond);
  const double shared = s.source(0).rate_bps();
  EXPECT_GT(solo, 1.8e6);   // had (almost) the whole PELS share
  EXPECT_LT(shared, 1.2e6); // yielded roughly half after the join
}

TEST(IntegrationMkc, SteadyStateHasNoOscillation) {
  // MKC's single stationary point (Lemma 6): the rate trace stays flat in
  // steady state up to per-epoch measurement quantization (~15 packets per
  // 30 ms interval), with no AIMD-style sawtooth. The deterministic-map
  // no-oscillation property is verified exactly in analysis_test; here we
  // bound the worst instantaneous deviation and pin the mean.
  ScenarioConfig cfg = base_config(2);
  DumbbellScenario s(cfg);
  s.run_until(40 * kSecond);
  const double r_star = mkc_stationary_rate(s.video_capacity_bps(), 2, cfg.mkc);
  const double mean = s.source(0).rate_series().mean_in(20 * kSecond, 40 * kSecond);
  EXPECT_NEAR(mean, r_star, r_star * 0.03);
  const double osc = s.source(0).rate_series().oscillation_in(20 * kSecond, 40 * kSecond);
  EXPECT_LT(osc / r_star, 0.12);
}

TEST(IntegrationMkc, EpochFilteringConsumesEachEpochOnce) {
  // The source receives ~1 ACK per data packet but must apply at most one
  // rate update per router epoch (§5.2).
  ScenarioConfig cfg = base_config(1);
  DumbbellScenario s(cfg);
  s.run_until(10 * kSecond);
  const auto updates = s.flow_table().mkc_updates(s.source(0).slot());
  const auto epochs = s.pels_queue()->epoch();
  EXPECT_LE(updates, epochs);
  EXPECT_GT(updates, epochs / 2);  // and it does consume most of them
}

// ------------------------------------------------------- gamma behaviour

TEST(IntegrationGamma, ConvergesNearStationaryPoint) {
  // Fig. 7 (left): with 4 flows the FGS loss is ~7.5%, so gamma settles near
  // p*/p_thr ~ 0.1. (FGS loss is slightly above the aggregate p* because the
  // protected green share is excluded from the denominator.)
  ScenarioConfig cfg = base_config(4);
  DumbbellScenario s(cfg);
  s.run_until(120 * kSecond);
  const double p_star =
      mkc_stationary_loss(s.video_capacity_bps(), 4, cfg.mkc.alpha_bps, cfg.mkc.beta);
  const double gamma_star = p_star / cfg.source.gamma.p_thr;
  const double gamma_avg =
      s.source(0).gamma_series().mean_in(60 * kSecond, 120 * kSecond);
  EXPECT_NEAR(gamma_avg, gamma_star, gamma_star * 0.5);
  EXPECT_GT(gamma_avg, 0.05);  // well off the probing floor
}

TEST(IntegrationGamma, RedLossConvergesToThreshold) {
  // Fig. 7 (right): red packet loss pins near p_thr regardless of p. With
  // lightly-loaded cross traffic WRR lends the PELS class spare capacity and
  // red loss dips below target, so keep the Internet queue backlogged.
  for (int flows : {4, 8}) {
    ScenarioConfig cfg = base_config(flows);
    cfg.tcp_flows = 3;
    cfg.source.gamma.p_thr = 0.75;
    DumbbellScenario s(cfg);
    s.run_until(120 * kSecond);
    const double red_loss =
        s.loss_series(Color::kRed).mean_in(60 * kSecond, 120 * kSecond);
    EXPECT_NEAR(red_loss, 0.75, 0.13) << "flows=" << flows;
  }
}

TEST(IntegrationGamma, YellowAndGreenProtected) {
  // Red absorbs all congestion: once gamma settles (the startup ramp spills
  // until the first loss estimate arrives, as in the paper's Fig. 7), the
  // yellow and green queues see (near) zero steady-state loss.
  ScenarioConfig cfg = base_config(4);
  DumbbellScenario s(cfg);
  s.run_until(60 * kSecond);
  const auto& c = s.pels_queue()->counters();
  ASSERT_GT(c.arrivals[static_cast<std::size_t>(Color::kYellow)], 1000u);
  EXPECT_LT(s.loss_series(Color::kYellow).mean_in(10 * kSecond, 60 * kSecond), 0.01);
  EXPECT_LT(s.loss_series(Color::kGreen).mean_in(10 * kSecond, 60 * kSecond), 1e-6);
}

TEST(IntegrationGamma, HigherLossRaisesGamma) {
  ScenarioConfig cfg4 = base_config(4);
  DumbbellScenario s4(cfg4);
  s4.run_until(90 * kSecond);
  ScenarioConfig cfg8 = base_config(8);
  DumbbellScenario s8(cfg8);
  s8.run_until(90 * kSecond);
  const double g4 = s4.source(0).gamma_series().mean_in(60 * kSecond, 90 * kSecond);
  const double g8 = s8.source(0).gamma_series().mean_in(60 * kSecond, 90 * kSecond);
  EXPECT_GT(g8, g4 * 1.4);  // roughly doubles with doubled loss
}

// ---------------------------------------------------------------- delays

TEST(IntegrationDelay, PriorityOrderingGreenYellowRed) {
  // Fig. 8/9: green < yellow << red one-way delays.
  ScenarioConfig cfg = base_config(4);
  DumbbellScenario s(cfg);
  s.run_until(60 * kSecond);
  const double green = s.sink(0).delay_samples(Color::kGreen).mean();
  const double yellow = s.sink(0).delay_samples(Color::kYellow).mean();
  const double red = s.sink(0).delay_samples(Color::kRed).mean();
  EXPECT_LT(green, yellow);
  EXPECT_LT(yellow * 2.0, red);
  // Green rides an almost-empty strict-priority band: near propagation-only.
  EXPECT_LT(green, 0.030);
  EXPECT_GT(red, 0.050);
}

TEST(IntegrationDelay, RedDelayDominatesAtEveryLoad) {
  // Fig. 9 (left): red delays sit orders of magnitude above yellow/green at
  // every load level, because red is only served from the leftover after
  // the higher bands. (At *equilibrium* our red delay shrinks as flows join
  // — red service scales with the MKC overshoot, which grows with N — so the
  // paper's monotone-growth reading of Fig. 9 appears here only in the join
  // transients; see EXPERIMENTS.md.)
  ScenarioConfig cfg = base_config(8);
  cfg.start_times = staircase_starts(8, 2, 30 * kSecond);
  DumbbellScenario s(cfg);
  s.run_until(120 * kSecond);
  const auto& red = s.sink(0).delay_series(Color::kRed);
  const auto& yellow = s.sink(0).delay_series(Color::kYellow);
  for (SimTime t0 : {10 * kSecond, 40 * kSecond, 70 * kSecond, 100 * kSecond}) {
    const double red_mean = red.mean_in(t0, t0 + 20 * kSecond);
    const double yellow_mean = yellow.mean_in(t0, t0 + 20 * kSecond);
    EXPECT_GT(red_mean, 3.0 * yellow_mean) << "window at " << to_seconds(t0) << "s";
    EXPECT_GT(red_mean, 0.050) << "window at " << to_seconds(t0) << "s";
  }
}

// ----------------------------------------------------------- video quality

TEST(IntegrationQuality, PelsUtilityNearOne) {
  // §3.2/§4.3: with red absorbing loss, nearly every received FGS byte is a
  // consecutive-prefix byte.
  ScenarioConfig cfg = base_config(4);
  DumbbellScenario s(cfg);
  s.run_until(40 * kSecond);
  s.finish();
  EXPECT_GT(s.sink(0).mean_utility(), 0.95);
}

TEST(IntegrationQuality, BestEffortUtilityFarBelowPels) {
  // Random loss shreds the FGS prefix. At 4 flows each frame carries ~10
  // FGS packets and the loss is ~10%, so eq. (3) predicts a best-effort
  // utility around (1-(1-p)^H)/(Hp) ~ 0.65 — far below PELS's ~0.98, and
  // collapsing further as frames grow (paper Fig. 2).
  ScenarioConfig cfg = base_config(4);
  cfg.bottleneck = BottleneckKind::kBestEffort;
  DumbbellScenario s(cfg);
  s.run_until(40 * kSecond);
  s.finish();
  const double be_utility = s.sink(0).mean_utility();
  EXPECT_LT(be_utility, 0.8);
  ScenarioConfig pcfg = base_config(4);
  DumbbellScenario sp(pcfg);
  sp.run_until(40 * kSecond);
  sp.finish();
  EXPECT_GT(sp.sink(0).mean_utility(), be_utility + 0.15);
}

TEST(IntegrationQuality, PelsPsnrBeatsBestEffort) {
  // Fig. 10's setting: one high-rate video flow under ~10% FGS loss (alpha
  // scaled up so the MKC equilibrium overshoot produces that loss level,
  // mirroring the paper's fixed network loss). PELS must deliver clearly
  // higher PSNR than the best-effort comparator on the same workload.
  auto run = [](BottleneckKind kind) {
    ScenarioConfig cfg = base_config(1);
    cfg.bottleneck = kind;
    cfg.mkc.alpha_bps = 125e3;  // alpha/beta = 250k -> p* ~ 10% of r* ~ 2.45m
    DumbbellScenario s(cfg);
    s.run_until(42 * kSecond);
    s.finish();
    RunningStats psnr;
    // Skip the startup transient: frames 50..350.
    for (const auto& q : s.sink(0).quality_for_frames(50, 350)) psnr.add(q.psnr_db);
    return psnr.mean();
  };
  const double pels_psnr = run(BottleneckKind::kPels);
  const double be_psnr = run(BottleneckKind::kBestEffort);
  EXPECT_GT(pels_psnr, be_psnr + 1.5);
}

TEST(IntegrationQuality, NoBaseLayerLossUnderPels) {
  ScenarioConfig cfg = base_config(4);
  DumbbellScenario s(cfg);
  s.run_until(40 * kSecond);
  s.finish();
  for (const auto& q : s.sink(0).quality_for_frames(5, 350)) {
    EXPECT_TRUE(q.base_ok) << "frame " << q.frame_id;
  }
}

// ----------------------------------------------------- traffic isolation

TEST(IntegrationIsolation, TcpKeepsItsWrrShare) {
  // §6.1: the Internet queue gets 50% of the bottleneck no matter how hard
  // the PELS flows push.
  ScenarioConfig cfg = base_config(8);
  DumbbellScenario s(cfg);
  s.run_until(30 * kSecond);
  const double tcp_goodput = s.tcp_source(0).goodput_bps(s.sim().now());
  EXPECT_GT(tcp_goodput, 0.4 * 2e6);  // >= 80% of its 2 mb/s share
}

TEST(IntegrationIsolation, PelsUnaffectedByTcpCount) {
  ScenarioConfig cfg1 = base_config(2);
  cfg1.tcp_flows = 1;
  DumbbellScenario s1(cfg1);
  s1.run_until(30 * kSecond);
  ScenarioConfig cfg4 = base_config(2);
  cfg4.tcp_flows = 4;
  DumbbellScenario s4(cfg4);
  s4.run_until(30 * kSecond);
  // PELS rates identical (to within noise) whether 1 or 4 TCP flows compete;
  // compare steady-state means, not instantaneous samples.
  const double r1 = s1.source(0).rate_series().mean_in(20 * kSecond, 30 * kSecond);
  const double r4 = s4.source(0).rate_series().mean_in(20 * kSecond, 30 * kSecond);
  EXPECT_NEAR(r1, r4, r1 * 0.05);
}

// ------------------------------------------------------- CC independence

TEST(IntegrationCc, PelsWorksWithAimd) {
  ScenarioConfig cfg = base_config(2);
  cfg.cc_kinds = {CcKind::kAimd};
  DumbbellScenario s(cfg);
  s.run_until(40 * kSecond);
  s.finish();
  // AIMD oscillates, but PELS still protects the prefix: utility stays high.
  EXPECT_GT(s.sink(0).mean_utility(), 0.9);
  EXPECT_GT(s.source(0).rate_bps(), 200e3);  // actually using the link
}

TEST(IntegrationCc, PelsWorksWithTfrc) {
  ScenarioConfig cfg = base_config(2);
  cfg.cc_kinds = {CcKind::kTfrc};
  DumbbellScenario s(cfg);
  s.run_until(40 * kSecond);
  s.finish();
  EXPECT_GT(s.sink(0).mean_utility(), 0.9);
  EXPECT_GT(s.source(0).rate_bps(), 200e3);
}

// -------------------------------------------------------- metrics export

TEST(IntegrationMetrics, CsvExportContainsAllMetrics) {
  ScenarioConfig cfg = base_config(2);
  DumbbellScenario s(cfg);
  s.run_until(10 * kSecond);
  const std::string path = ::testing::TempDir() + "/pels_metrics.csv";
  ASSERT_TRUE(write_metrics_csv(s, path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "t_seconds,metric,index,value");
  std::map<std::string, int> metric_counts;
  std::string line;
  while (std::getline(in, line)) {
    const auto first = line.find(',');
    const auto second = line.find(',', first + 1);
    ASSERT_NE(second, std::string::npos) << line;
    ++metric_counts[line.substr(first + 1, second - first - 1)];
  }
  for (const char* metric :
       {"rate_bps", "gamma", "measured_fgs_loss", "queue_loss_red", "queue_fgs_loss",
        "delay_green_ms", "delay_yellow_ms"}) {
    EXPECT_GT(metric_counts[metric], 0) << metric;
  }
  // Two flows: per-flow series are roughly twice the per-queue ones.
  EXPECT_GT(metric_counts["rate_bps"], metric_counts["queue_loss_red"]);
}

// ----------------------------------------------------------- determinism

TEST(IntegrationDeterminism, SameSeedSameTrajectory) {
  auto run = [] {
    ScenarioConfig cfg = base_config(4);
    cfg.seed = 123;
    DumbbellScenario s(cfg);
    s.run_until(20 * kSecond);
    return std::tuple{s.source(0).rate_bps(), s.source(0).gamma(),
                      s.pels_queue()->counters().total_drops()};
  };
  EXPECT_EQ(run(), run());
}

TEST(IntegrationDeterminism, DifferentSeedDifferentDrops) {
  auto drops = [](std::uint64_t seed) {
    ScenarioConfig cfg = base_config(4);
    cfg.bottleneck = BottleneckKind::kBestEffort;
    cfg.seed = seed;
    DumbbellScenario s(cfg);
    s.run_until(10 * kSecond);
    return s.best_effort_queue()->counters().total_drops();
  };
  EXPECT_NE(drops(1), drops(2));
}

}  // namespace
}  // namespace pels
