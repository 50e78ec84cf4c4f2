// Failure-injection and robustness tests: link degradation, lossy ACK paths,
// flow churn. The paper's framework must keep its invariants (green
// protection, red-absorbs-loss, convergence to the new equilibrium) when the
// environment changes under it.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/stability.h"
#include "cc/mkc.h"
#include "exp/sweep.h"
#include "pels/metrics.h"
#include "pels/scenario.h"
#include "util/stats.h"

namespace pels {
namespace {

ScenarioConfig base_config(int flows) {
  ScenarioConfig cfg;
  cfg.pels_flows = flows;
  cfg.tcp_flows = 3;
  cfg.seed = 17;
  return cfg;
}

// ----------------------------------------------------- capacity changes

TEST(RobustnessTest, CapacityDegradationReconverges) {
  // Halve the bottleneck at t = 20 s: flows must settle at the new
  // stationary rate C'/N + alpha/beta without losing green packets.
  ScenarioConfig cfg = base_config(2);
  DumbbellScenario s(cfg);
  s.run_until(20 * kSecond);
  const double before = s.source(0).rate_series().mean_in(15 * kSecond, 20 * kSecond);
  s.set_bottleneck_bandwidth(2e6);  // PELS share drops 2 mb/s -> 1 mb/s
  s.run_until(50 * kSecond);
  const double after = s.source(0).rate_series().mean_in(40 * kSecond, 50 * kSecond);
  const double r_star_new = mkc_stationary_rate(1e6, 2, cfg.mkc);
  EXPECT_NEAR(after, r_star_new, r_star_new * 0.08);
  EXPECT_LT(after, before * 0.65);
  EXPECT_LT(s.loss_series(Color::kGreen).mean_in(30 * kSecond, 50 * kSecond), 1e-6);
}

TEST(RobustnessTest, CapacityUpgradeIsClaimed) {
  ScenarioConfig cfg = base_config(2);
  DumbbellScenario s(cfg);
  s.run_until(20 * kSecond);
  s.set_bottleneck_bandwidth(8e6);  // PELS share 2 mb/s -> 4 mb/s
  s.run_until(50 * kSecond);
  const double after = s.source(0).rate_series().mean_in(40 * kSecond, 50 * kSecond);
  const double r_star_new = mkc_stationary_rate(4e6, 2, cfg.mkc);
  EXPECT_NEAR(after, r_star_new, r_star_new * 0.08);
}

TEST(RobustnessTest, GammaTracksLossAcrossCapacityDrop) {
  // After the drop the relative overshoot doubles; gamma must rise with it
  // and red keeps absorbing the loss (yellow stays protected).
  ScenarioConfig cfg = base_config(4);
  DumbbellScenario s(cfg);
  s.run_until(30 * kSecond);
  const double gamma_before = s.source(0).gamma_series().mean_in(20 * kSecond, 30 * kSecond);
  s.set_bottleneck_bandwidth(2.4e6);
  s.run_until(70 * kSecond);
  const double gamma_after = s.source(0).gamma_series().mean_in(55 * kSecond, 70 * kSecond);
  EXPECT_GT(gamma_after, gamma_before * 1.5);
  EXPECT_LT(s.loss_series(Color::kYellow).mean_in(45 * kSecond, 70 * kSecond), 0.02);
}

// ------------------------------------------------------- lossy ACK path

TEST(RobustnessTest, SurvivesAckLoss) {
  // 20% of ACKs vanish: feedback arrives via the surviving ACKs (every data
  // packet is acknowledged, and epochs are consumed at most once anyway), so
  // the equilibrium must be unchanged.
  // The clean and lossy runs are independent simulations — run the pair
  // through the sweep engine (exercises the share-nothing task model).
  struct Run {
    double rate;
    double utility;
  };
  std::vector<std::function<Run()>> tasks;
  for (double ack_loss : {0.0, 0.2}) {
    tasks.push_back([ack_loss] {
      DumbbellScenario s(base_config(2));
      // Link 1 is the reverse (ACK) direction of the bottleneck.
      if (ack_loss > 0.0) s.topology().link(1).set_corruption(ack_loss, s.sim().make_rng(0xACC));
      s.run_until(30 * kSecond);
      const double rate = s.source(0).rate_series().mean_in(20 * kSecond, 30 * kSecond);
      s.finish();
      return Run{rate, s.sink(0).mean_utility()};
    });
  }
  SweepRunner runner;
  const auto outcomes = runner.run(std::move(tasks));
  ASSERT_TRUE(outcomes[0].ok() && outcomes[1].ok());
  const double clean_rate = outcomes[0].value->rate;
  const double lossy_rate = outcomes[1].value->rate;
  EXPECT_NEAR(lossy_rate, clean_rate, clean_rate * 0.05);
  EXPECT_GT(outcomes[1].value->utility, 0.95);
}

TEST(RobustnessTest, HeavyAckLossDegradesGracefully) {
  // Even at 60% ACK loss the control loop keeps functioning (rates bounded,
  // green never dropped); loss measurement gets noisier, nothing diverges.
  const ScenarioConfig cfg = base_config(2);
  DumbbellScenario s(cfg);
  s.topology().link(1).set_corruption(0.6, s.sim().make_rng(0xACC));
  s.run_until(30 * kSecond);
  const double rate = s.source(0).rate_series().mean_in(20 * kSecond, 30 * kSecond);
  const double r_star = mkc_stationary_rate(s.video_capacity_bps(), 2, cfg.mkc);
  EXPECT_GT(rate, r_star * 0.7);
  EXPECT_LT(rate, r_star * 1.3);
  EXPECT_LT(s.loss_series(Color::kGreen).mean_in(10 * kSecond, 30 * kSecond), 1e-6);
}

// -------------------------------------------------- non-congestive loss

TEST(RobustnessTest, WirelessLossDoesNotConfuseMkc) {
  // Corruption happens after the queue; MKC's demand-based feedback cannot
  // see it, so the sending rate must be unchanged (unlike loss-based CC).
  std::vector<std::function<double()>> tasks;
  for (double wireless_loss : {0.0, 0.05}) {
    tasks.push_back([wireless_loss] {
      ScenarioConfig cfg = base_config(2);
      cfg.wireless_loss = wireless_loss;
      DumbbellScenario s(cfg);
      s.run_until(30 * kSecond);
      return s.source(0).rate_series().mean_in(20 * kSecond, 30 * kSecond);
    });
  }
  SweepRunner runner;
  const auto outcomes = runner.run(std::move(tasks));
  ASSERT_TRUE(outcomes[0].ok() && outcomes[1].ok());
  const double r_clean = *outcomes[0].value;
  const double r_lossy = *outcomes[1].value;
  EXPECT_NEAR(r_lossy, r_clean, r_clean * 0.03);
}

TEST(RobustnessTest, WirelessLossDegradesUtilityAsBestEffort) {
  // Post-queue corruption is uniform random loss on the decodable classes:
  // utility falls toward the best-effort analysis at the corruption rate.
  ScenarioConfig cfg = base_config(2);
  cfg.wireless_loss = 0.05;
  DumbbellScenario s(cfg);
  s.run_until(30 * kSecond);
  s.finish();
  const double u = s.sink(0).mean_utility();
  EXPECT_LT(u, 0.85);
  EXPECT_GT(u, 0.3);
}

// ------------------------------------------------------------ flow churn

TEST(RobustnessTest, DepartingFlowReleasesBandwidth) {
  ScenarioConfig cfg = base_config(4);
  DumbbellScenario s(cfg);
  s.run_until(20 * kSecond);
  const double shared = s.source(0).rate_series().mean_in(15 * kSecond, 20 * kSecond);
  // Flows 2 and 3 leave.
  s.source(2).stop();
  s.source(3).stop();
  s.run_until(50 * kSecond);
  const double after = s.source(0).rate_series().mean_in(40 * kSecond, 50 * kSecond);
  const double r_star_2 = mkc_stationary_rate(s.video_capacity_bps(), 2, cfg.mkc);
  EXPECT_GT(after, shared * 1.5);
  EXPECT_NEAR(after, r_star_2, r_star_2 * 0.08);
}

TEST(RobustnessTest, RepeatedChurnKeepsUtilityHigh) {
  ScenarioConfig cfg = base_config(6);
  cfg.start_times = staircase_starts(6, 2, 8 * kSecond);
  DumbbellScenario s(cfg);
  s.run_until(30 * kSecond);
  s.source(4).stop();
  s.source(5).stop();
  s.run_until(45 * kSecond);
  s.finish();
  EXPECT_GT(s.sink(0).mean_utility(), 0.9);
  EXPECT_LT(s.loss_series(Color::kGreen).mean_in(5 * kSecond, 45 * kSecond), 1e-6);
}

// --------------------------------------------------- scripted fault plans

TEST(RobustnessTest, AckBlackoutDecaysAndRecovers) {
  // 5 s total feedback blackout: every ACK on the reverse bottleneck wire is
  // lost in [20, 25) s. The watchdog must decay the rate (holding it would
  // mean driving an open loop; the seed froze at the pre-blackout value),
  // green must stay protected throughout, and the flows must re-converge to
  // the stationary rate within 10 s of feedback resuming.
  ScenarioConfig cfg = base_config(2);
  cfg.faults.ack_blackouts.push_back({20 * kSecond, 25 * kSecond});
  DumbbellScenario s(cfg);
  s.run_until(20 * kSecond);
  const double before = s.source(0).rate_series().mean_in(15 * kSecond, 20 * kSecond);
  s.run_until(from_seconds(24.9));
  EXPECT_TRUE(s.source(0).feedback_silent());
  EXPECT_GT(s.source(0).silent_intervals(), 10u);
  const double during = s.source(0).rate_bps();
  EXPECT_LT(during, 0.5 * before);           // decayed, not frozen-high
  EXPECT_GE(during, cfg.mkc.min_rate_bps);   // and not collapsed to zero
  s.run_until(35 * kSecond);
  EXPECT_FALSE(s.source(0).feedback_silent());
  const double after = s.source(0).rate_series().mean_in(31 * kSecond, 35 * kSecond);
  const double r_star = mkc_stationary_rate(s.video_capacity_bps(), 2, cfg.mkc);
  EXPECT_NEAR(after, r_star, r_star * 0.08);
  EXPECT_LT(s.loss_series(Color::kGreen).mean_in(10 * kSecond, 35 * kSecond), 1e-6);
}

TEST(RobustnessTest, RouterRestartDoesNotDeafenSenders) {
  // Restart the bottleneck's control plane at t = 20 s: the feedback meter
  // resumes stamping at epoch 1, a backward jump of ~600 epochs. The
  // watchdog is disabled here to isolate the epoch-restart rule — on the
  // seed's strict `z > seen` filter the senders would ignore every label for
  // another ~20 s until the reborn router counted past the old epoch.
  ScenarioConfig cfg = base_config(2);
  cfg.source.feedback_timeout = 0;
  cfg.faults.router_restarts.push_back({20 * kSecond});
  DumbbellScenario s(cfg);
  s.run_until(21 * kSecond);
  const std::int32_t router = s.source(0).governing_router();
  const std::uint64_t consumed_at_21 = s.source(0).feedback_consumed(router);
  EXPECT_GT(consumed_at_21, 0u);
  s.run_until(23 * kSecond);
  // Labels keep being consumed right through the restart (~33 epochs/s).
  EXPECT_GT(s.source(0).feedback_consumed(router), consumed_at_21 + 30);
  // And the loop is demonstrably closed: a capacity drop after the restart
  // still reconverges to the new stationary rate.
  s.set_bottleneck_bandwidth(2e6);
  s.run_until(40 * kSecond);
  const double after = s.source(0).rate_series().mean_in(34 * kSecond, 40 * kSecond);
  const double r_star_new = mkc_stationary_rate(1e6, 2, cfg.mkc);
  EXPECT_NEAR(after, r_star_new, r_star_new * 0.08);
}

TEST(RobustnessTest, ForwardLinkFlapRecovers) {
  // Hard carrier loss on the bottleneck wire for 2 s: no data reaches the
  // sinks, so no ACKs flow and the watchdog decays the rate; on recovery the
  // flows re-probe back to the stationary point.
  ScenarioConfig cfg = base_config(2);
  cfg.faults.link_flaps.push_back({20 * kSecond, 22 * kSecond});
  DumbbellScenario s(cfg);
  s.run_until(20 * kSecond);
  const double before = s.source(0).rate_series().mean_in(15 * kSecond, 20 * kSecond);
  s.run_until(from_seconds(21.9));
  EXPECT_TRUE(s.source(0).feedback_silent());
  EXPECT_LT(s.source(0).rate_bps(), 0.7 * before);
  s.run_until(35 * kSecond);
  const double after = s.source(0).rate_series().mean_in(30 * kSecond, 35 * kSecond);
  const double r_star = mkc_stationary_rate(s.video_capacity_bps(), 2, cfg.mkc);
  EXPECT_NEAR(after, r_star, r_star * 0.08);
}

TEST(RobustnessTest, BrownoutTracksDegradedCapacityAndRestores) {
  // 50% bandwidth brown-out for 15 s: the AQM's capacity share follows the
  // wire, so the flows settle at the degraded stationary rate, then return.
  ScenarioConfig cfg = base_config(2);
  cfg.faults.brownouts.push_back({20 * kSecond, 35 * kSecond, 0.5});
  DumbbellScenario s(cfg);
  s.run_until(35 * kSecond);
  const double during = s.source(0).rate_series().mean_in(30 * kSecond, 35 * kSecond);
  const double r_low = mkc_stationary_rate(1e6, 2, cfg.mkc);
  EXPECT_NEAR(during, r_low, r_low * 0.10);
  s.run_until(50 * kSecond);
  const double after = s.source(0).rate_series().mean_in(45 * kSecond, 50 * kSecond);
  const double r_full = mkc_stationary_rate(2e6, 2, cfg.mkc);
  EXPECT_NEAR(after, r_full, r_full * 0.08);
  EXPECT_LT(s.loss_series(Color::kGreen).mean_in(30 * kSecond, 50 * kSecond), 1e-6);
}

TEST(RobustnessTest, BurstCorruptionDoesNotConfuseMkc) {
  // Gilbert–Elliott corruption is post-queue, non-congestive loss: MKC's
  // demand-based feedback cannot see it, so the sending rate must match the
  // clean run even though utility takes the hit.
  ScenarioConfig clean_cfg = base_config(2);
  DumbbellScenario clean(clean_cfg);
  clean.run_until(30 * kSecond);
  ScenarioConfig burst_cfg = base_config(2);
  GilbertElliottConfig ge;
  ge.p_good_to_bad = 0.01;
  ge.p_bad_to_good = 0.20;
  ge.loss_bad = 0.5;  // ~2.4% stationary loss, in ~5-packet bursts
  burst_cfg.faults.burst_corruption = ge;
  DumbbellScenario bursty(burst_cfg);
  bursty.run_until(30 * kSecond);
  const double r_clean = clean.source(0).rate_series().mean_in(20 * kSecond, 30 * kSecond);
  const double r_burst = bursty.source(0).rate_series().mean_in(20 * kSecond, 30 * kSecond);
  EXPECT_NEAR(r_burst, r_clean, r_clean * 0.03);
  bursty.finish();
  const double u = bursty.sink(0).mean_utility();
  EXPECT_LT(u, 0.95);  // prefix holes punched by the bursts
  EXPECT_GT(u, 0.3);
}

// ------------------------------------------------------ deterministic replay

ScenarioConfig faulted_config() {
  ScenarioConfig cfg = base_config(2);
  cfg.faults.ack_blackouts.push_back({8 * kSecond, 10 * kSecond});
  cfg.faults.link_flaps.push_back({14 * kSecond, 15 * kSecond});
  cfg.faults.brownouts.push_back({18 * kSecond, 20 * kSecond, 0.5});
  cfg.faults.router_restarts.push_back({22 * kSecond});
  cfg.faults.burst_corruption = GilbertElliottConfig{};
  return cfg;
}

std::string run_faulted_and_dump(const std::string& path) {
  DumbbellScenario s(faulted_config());
  s.run_until(30 * kSecond);
  s.finish();
  EXPECT_TRUE(write_metrics_csv(s, path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

TEST(RobustnessTest, FaultScheduleReplaysBitForBit) {
  // The full fault vocabulary active at once: identical seed + plan must
  // reproduce every exported trajectory byte-for-byte, or no failure run
  // could ever be debugged by re-running it.
  const std::string a = run_faulted_and_dump(testing::TempDir() + "fault_replay_a.csv");
  const std::string b = run_faulted_and_dump(testing::TempDir() + "fault_replay_b.csv");
  ASSERT_GT(a.size(), 1000u);
  EXPECT_EQ(a, b);
}

// --------------------------------------------------------- config validation

TEST(RobustnessTest, ScenarioConfigValidationFailsFast) {
  {
    ScenarioConfig cfg = base_config(2);
    cfg.pels_flows = 0;
    EXPECT_THROW(DumbbellScenario s(cfg), std::invalid_argument);
  }
  {
    ScenarioConfig cfg = base_config(2);
    cfg.bottleneck_bps = 0.0;
    EXPECT_THROW(DumbbellScenario s(cfg), std::invalid_argument);
  }
  {
    ScenarioConfig cfg = base_config(2);
    cfg.mkc.beta = 2.0;  // outside MKC's stability region
    EXPECT_THROW(DumbbellScenario s(cfg), std::invalid_argument);
  }
  {
    ScenarioConfig cfg = base_config(2);
    cfg.source.gamma.sigma = 2.0;  // outside eq. (4)'s stability region
    EXPECT_THROW(DumbbellScenario s(cfg), std::invalid_argument);
  }
  {
    ScenarioConfig cfg = base_config(2);
    cfg.bottleneck = BottleneckKind::kBestEffort;
    cfg.faults.router_restarts.push_back({10 * kSecond});
    EXPECT_THROW(DumbbellScenario s(cfg), std::invalid_argument);
  }
  {
    ScenarioConfig cfg = base_config(2);
    cfg.faults.brownouts.push_back({10 * kSecond, 5 * kSecond, 0.5});
    EXPECT_THROW(DumbbellScenario s(cfg), std::invalid_argument);
  }
}

TEST(RobustnessTest, ComparatorQueueConfigsValidatedForTheirBottleneck) {
  // Each comparator's AQM config is checked when it is the bottleneck in
  // use, and only then.
  ScenarioConfig cfg = base_config(2);
  cfg.best_effort_queue.video_weight = 0.0;
  cfg.rem_queue.phi = 1.0;
  EXPECT_NO_THROW(cfg.validate());
  cfg.bottleneck = BottleneckKind::kBestEffort;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(DumbbellScenario s(cfg), std::invalid_argument);
  cfg.bottleneck = BottleneckKind::kRem;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(DumbbellScenario s(cfg), std::invalid_argument);
  // The scenario overwrites link_bandwidth_bps with the bottleneck rate, so
  // a zero there in the nested config is not an error.
  cfg.rem_queue.phi = 2.0;
  cfg.rem_queue.link_bandwidth_bps = 0.0;
  EXPECT_NO_THROW(cfg.validate());
}

}  // namespace
}  // namespace pels
