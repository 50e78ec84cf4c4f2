// Tests for the congestion-controller zoo (cc/cubic, cc/dcqcn, cc/swift,
// cc/scream_lite): per-kernel dynamics, the ECN-mark reactions the fairness
// matrix depends on, and the FlowTable determinism contract — controller
// calls and direct FlowTable::apply_* calls on a table slot must produce
// bit-for-bit identical state.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cc/aimd.h"
#include "cc/cubic.h"
#include "cc/dcqcn.h"
#include "cc/flow_table.h"
#include "cc/scream_lite.h"
#include "cc/swift.h"
#include "cc/tfrc_lite.h"

namespace pels {
namespace {

// ------------------------------------------------------------------ CUBIC

TEST(CubicTest, SlowStartRampBeforeFirstEvent) {
  CubicConfig cfg;
  CubicController cubic(cfg);
  cubic.set_rtt(from_millis(100));
  cubic.on_control_tick(0);
  EXPECT_DOUBLE_EQ(cubic.cwnd_pkts(), cfg.initial_cwnd_pkts * cfg.slow_start_growth);
  cubic.on_control_tick(from_millis(200));
  EXPECT_DOUBLE_EQ(cubic.cwnd_pkts(),
                   cfg.initial_cwnd_pkts * cfg.slow_start_growth * cfg.slow_start_growth);
}

TEST(CubicTest, LossEventCutsWindowAndRemembersPlateau) {
  CubicConfig cfg;
  CubicController cubic(cfg);
  cubic.set_rtt(from_millis(100));
  const double before = cubic.cwnd_pkts();
  cubic.on_loss_interval(0.1, from_millis(500));
  EXPECT_DOUBLE_EQ(cubic.w_max(), before);
  EXPECT_DOUBLE_EQ(cubic.cwnd_pkts(), before * cfg.beta);
  EXPECT_DOUBLE_EQ(cubic.rate_bps(),
                   cubic_rate_from_cwnd(cfg, before * cfg.beta, from_millis(100)));
}

TEST(CubicTest, EcnMarkBacksOffGentlerThanLoss) {
  CubicConfig cfg;
  CubicController lossy(cfg);
  CubicController marked(cfg);
  lossy.set_rtt(from_millis(100));
  marked.set_rtt(from_millis(100));
  lossy.on_loss_interval(0.1, 0);
  marked.on_mark_fraction(0.1, 0);
  EXPECT_DOUBLE_EQ(lossy.cwnd_pkts(), cfg.initial_cwnd_pkts * cfg.beta);
  EXPECT_DOUBLE_EQ(marked.cwnd_pkts(), cfg.initial_cwnd_pkts * cfg.ecn_beta);
  EXPECT_GT(marked.cwnd_pkts(), lossy.cwnd_pkts());
}

TEST(CubicTest, ConcaveThenConvexGrowthAroundPlateau) {
  // After an event the window follows W(t) = C (t-K)^3 + W_max: per-tick
  // increments shrink approaching the plateau (concave region) and grow
  // beyond it (convex probing). A long RTT keeps the Reno-friendly floor
  // negligible so the pure cubic curve is observable.
  CubicConfig cfg;
  cfg.initial_cwnd_pkts = 100.0;
  CubicController cubic(cfg);
  cubic.set_rtt(from_millis(500));
  cubic.on_loss_interval(0.1, 0);
  const double k_sec = std::cbrt(cfg.initial_cwnd_pkts * (1.0 - cfg.beta) / cfg.c);

  std::vector<double> t_sec;
  std::vector<double> cwnd;
  for (int i = 1; i <= 34; ++i) {
    const SimTime now = i * from_millis(250);
    cubic.on_control_tick(now);
    t_sec.push_back(to_seconds(now));
    cwnd.push_back(cubic.cwnd_pkts());
  }
  int concave_pairs = 0;
  int convex_pairs = 0;
  for (std::size_t i = 2; i < cwnd.size(); ++i) {
    const double prev_delta = cwnd[i - 1] - cwnd[i - 2];
    const double delta = cwnd[i] - cwnd[i - 1];
    if (t_sec[i] < k_sec - 0.5) {
      EXPECT_LT(delta, prev_delta) << "not concave at t=" << t_sec[i];
      ++concave_pairs;
    } else if (t_sec[i - 2] > k_sec + 0.5) {
      EXPECT_GT(delta, prev_delta) << "not convex at t=" << t_sec[i];
      ++convex_pairs;
    }
    EXPECT_GE(delta, 0.0) << "window shrank without an event at t=" << t_sec[i];
  }
  EXPECT_GE(concave_pairs, 5);
  EXPECT_GE(convex_pairs, 5);
  EXPECT_GT(cwnd.back(), cfg.initial_cwnd_pkts);  // probing passed the plateau
}

TEST(CubicTest, TcpFriendlyRegionFloorsTheWindow) {
  // With a short RTT the Reno-equivalent estimate grows faster than the
  // early cubic curve and must floor the window (RFC 9438 §4.3).
  CubicConfig cfg;
  cfg.initial_cwnd_pkts = 100.0;
  CubicController cubic(cfg);
  const SimTime rtt = from_millis(50);
  cubic.set_rtt(rtt);
  cubic.on_loss_interval(0.1, 0);
  const SimTime now = 3 * kSecond;  // past the w_est/target crossover
  cubic.on_control_tick(now);

  const double t = to_seconds(now);
  const double k = std::cbrt(cfg.initial_cwnd_pkts * (1.0 - cfg.beta) / cfg.c);
  const double target =
      cfg.initial_cwnd_pkts + cfg.c * (t - k) * (t - k) * (t - k);
  const double w_est = cfg.initial_cwnd_pkts * cfg.beta +
                       3.0 * (1.0 - cfg.beta) / (1.0 + cfg.beta) * (t / to_seconds(rtt));
  ASSERT_GT(w_est, target);  // precondition: the friendly region governs here
  EXPECT_DOUBLE_EQ(cubic.cwnd_pkts(), w_est);
}

// ------------------------------------------------------------------ DCQCN

TEST(DcqcnTest, MarkedIntervalCutsRateByHalfAlpha) {
  DcqcnConfig cfg;
  DcqcnController dcqcn(cfg);
  dcqcn.on_mark_fraction(0.3, 0);
  // initial_alpha = 1: the first cut halves RC and remembers it as RT.
  EXPECT_DOUBLE_EQ(dcqcn.rate_bps(), cfg.initial_rate_bps * 0.5);
  EXPECT_DOUBLE_EQ(dcqcn.target_rate_bps(), cfg.initial_rate_bps);
  EXPECT_EQ(dcqcn.recovery_stage(), 0);
}

TEST(DcqcnTest, AlphaDecaysOnCleanIntervals) {
  DcqcnConfig cfg;
  DcqcnController dcqcn(cfg);
  dcqcn.on_mark_fraction(0.3, 0);
  const double alpha_after_mark = dcqcn.alpha();
  for (int i = 0; i < 3; ++i) dcqcn.on_mark_fraction(0.0, 0);
  EXPECT_DOUBLE_EQ(dcqcn.alpha(),
                   alpha_after_mark * std::pow(1.0 - cfg.alpha_g, 3.0));
}

TEST(DcqcnTest, FastRecoveryHalvesGapThenActiveIncreaseRaisesTarget) {
  DcqcnConfig cfg;
  DcqcnController dcqcn(cfg);
  dcqcn.on_mark_fraction(0.3, 0);  // RC = 64k, RT = 128k
  double expected_rate = cfg.initial_rate_bps * 0.5;
  for (int stage = 1; stage <= cfg.fast_recovery_stages; ++stage) {
    dcqcn.on_mark_fraction(0.0, 0);
    expected_rate = 0.5 * (cfg.initial_rate_bps + expected_rate);
    EXPECT_DOUBLE_EQ(dcqcn.rate_bps(), expected_rate) << "stage " << stage;
    EXPECT_DOUBLE_EQ(dcqcn.target_rate_bps(), cfg.initial_rate_bps)
        << "target must not move during fast recovery";
  }
  dcqcn.on_mark_fraction(0.0, 0);  // first active-increase stage
  EXPECT_DOUBLE_EQ(dcqcn.target_rate_bps(), cfg.initial_rate_bps + cfg.rate_ai_bps);
  EXPECT_GT(dcqcn.rate_bps(), expected_rate);
}

TEST(DcqcnTest, LossActsLikeMarkedInterval) {
  DcqcnConfig cfg;
  DcqcnController marked(cfg);
  DcqcnController lossy(cfg);
  marked.on_mark_fraction(0.3, 0);
  lossy.on_loss_interval(0.3, 0);
  EXPECT_DOUBLE_EQ(lossy.rate_bps(), marked.rate_bps());
  EXPECT_DOUBLE_EQ(lossy.alpha(), marked.alpha());
}

// ------------------------------------------------------------------ Swift

TEST(SwiftTest, BelowQLowAlwaysIncreases) {
  SwiftConfig cfg;
  SimTime prev = 0, min_rtt = 0;
  double rate = cfg.initial_rate_bps;
  swift_tick_step(cfg, from_millis(40), prev, min_rtt, rate);  // primes memories
  EXPECT_DOUBLE_EQ(rate, cfg.initial_rate_bps);
  // qdelay = 2 ms < q_low even though the RTT is rising: additive increase.
  swift_tick_step(cfg, from_millis(42), prev, min_rtt, rate);
  EXPECT_DOUBLE_EQ(rate, cfg.initial_rate_bps + cfg.ai_bps);
}

TEST(SwiftTest, AboveQHighCutsProportionallyToOvershoot) {
  SwiftConfig cfg;
  SimTime prev = 0, min_rtt = 0;
  double rate = cfg.initial_rate_bps;
  swift_tick_step(cfg, from_millis(40), prev, min_rtt, rate);
  swift_tick_step(cfg, from_millis(140), prev, min_rtt, rate);  // qdelay 100 ms
  const double over = 1.0 - to_seconds(cfg.q_high) / to_seconds(from_millis(100));
  EXPECT_DOUBLE_EQ(rate, cfg.initial_rate_bps * (1.0 - cfg.md_gain * over));
}

TEST(SwiftTest, GradientSignDecidesInsideTheBand) {
  SwiftConfig cfg;
  // Rising RTT with qdelay inside (q_low, q_high): multiplicative decrease
  // proportional to the normalized gradient.
  {
    SimTime prev = 0, min_rtt = 0;
    double rate = cfg.initial_rate_bps;
    swift_tick_step(cfg, from_millis(40), prev, min_rtt, rate);
    swift_tick_step(cfg, from_millis(50), prev, min_rtt, rate);  // qdelay 10 ms, rising
    const double grad = to_seconds(from_millis(10)) / to_seconds(cfg.gradient_scale);
    EXPECT_DOUBLE_EQ(rate, cfg.initial_rate_bps * (1.0 - cfg.md_gain * grad));
  }
  // Falling RTT at the same qdelay: additive increase.
  {
    SimTime prev = 0, min_rtt = 0;
    double rate = cfg.initial_rate_bps;
    swift_tick_step(cfg, from_millis(40), prev, min_rtt, rate);
    swift_tick_step(cfg, from_millis(60), prev, min_rtt, rate);
    const double after_rise = rate;
    swift_tick_step(cfg, from_millis(55), prev, min_rtt, rate);  // qdelay 15 ms, falling
    EXPECT_DOUBLE_EQ(rate, after_rise + cfg.ai_bps);
  }
}

// ------------------------------------------------------------- SCReAM-lite

TEST(ScreamTest, RampScalesWithHeadroom) {
  ScreamLiteConfig cfg;
  ScreamLiteController scream(cfg);
  scream.set_rtt(from_millis(40));  // primes min_rtt: qdelay 0, full headroom
  scream.on_control_tick(0);
  EXPECT_DOUBLE_EQ(scream.rate_bps(), cfg.initial_rate_bps + cfg.increase_bps);
  // Half the target qdelay leaves half the headroom.
  ScreamLiteController half(cfg);
  half.set_rtt(from_millis(40));
  half.set_rtt(from_millis(40) + cfg.qdelay_target / 2);
  half.on_control_tick(0);
  EXPECT_DOUBLE_EQ(half.rate_bps(), cfg.initial_rate_bps + cfg.increase_bps * 0.5);
}

TEST(ScreamTest, ShrinkProportionalToOvershoot) {
  ScreamLiteConfig cfg;
  ScreamLiteController scream(cfg);
  scream.set_rtt(from_millis(40));
  scream.set_rtt(from_millis(40) + 2 * cfg.qdelay_target);  // overshoot = 1 (capped)
  scream.on_control_tick(0);
  EXPECT_DOUBLE_EQ(scream.rate_bps(),
                   cfg.initial_rate_bps * (1.0 - cfg.decrease_gain));
}

TEST(ScreamTest, LossAndMarkBackoffsFloorAtBeta) {
  ScreamLiteConfig cfg;
  ScreamLiteController scream(cfg);
  scream.on_loss_interval(0.5, 0);  // 1 - p = 0.5 < loss_beta: floored
  EXPECT_DOUBLE_EQ(scream.rate_bps(), cfg.initial_rate_bps * cfg.loss_beta);
  ScreamLiteController gentle(cfg);
  gentle.on_mark_fraction(0.02, 0);  // 1 - f = 0.98 > mark_beta: proportional
  EXPECT_DOUBLE_EQ(gentle.rate_bps(), cfg.initial_rate_bps * 0.98);
  ScreamLiteController floored(cfg);
  floored.on_mark_fraction(0.5, 0);
  EXPECT_DOUBLE_EQ(floored.rate_bps(), cfg.initial_rate_bps * cfg.mark_beta);
}

// -------------------------------------------- ECN regressions (TFRC, AIMD)

TEST(TfrcEcnTest, MarkedNotDroppedIntervalReducesRate) {
  // Satellite regression: a clean-delivery interval whose packets carried CE
  // marks must reduce the rate exactly like a lossy one (RFC 8087 §4.1).
  TfrcLiteConfig cfg;
  TfrcLiteController tfrc(cfg);
  TfrcLiteController lossy(cfg);
  // Ramp both to a high operating point first (idle-link feedback doubles
  // the rate while no loss event has been seen).
  for (int i = 0; i < 5; ++i) {
    tfrc.on_router_feedback(-1.0, i * kSecond);
    lossy.on_router_feedback(-1.0, i * kSecond);
  }
  const double before = tfrc.rate_bps();
  tfrc.on_mark_fraction(0.2, 5 * kSecond);
  EXPECT_LT(tfrc.rate_bps(), before);
  EXPECT_GT(tfrc.smoothed_loss(), 0.0);

  lossy.on_loss_interval(0.2, 5 * kSecond);
  EXPECT_DOUBLE_EQ(tfrc.rate_bps(), lossy.rate_bps());
}

TEST(TfrcEcnTest, MarkFreeIntervalDoesNotDoubleDecay) {
  // The mark path folds into the loss-event EWMA only when f > 0; a clean
  // interval must not decay the estimate a second time (the loss path
  // already saw its own interval sample).
  TfrcLiteConfig cfg;
  TfrcLiteController tfrc(cfg);
  tfrc.on_mark_fraction(0.2, 0);
  const double smoothed = tfrc.smoothed_loss();
  const double rate = tfrc.rate_bps();
  tfrc.on_mark_fraction(0.0, kSecond);
  EXPECT_DOUBLE_EQ(tfrc.smoothed_loss(), smoothed);
  EXPECT_DOUBLE_EQ(tfrc.rate_bps(), rate);
}

TEST(AimdEcnTest, MarkBacksOffUnderSharedGuard) {
  AimdConfig cfg;
  AimdController aimd(cfg);
  aimd.on_mark_fraction(0.1, kSecond);
  EXPECT_DOUBLE_EQ(aimd.rate_bps(), cfg.initial_rate_bps * cfg.decrease_factor);
  EXPECT_EQ(aimd.decreases(), 1u);
  // A positive router label inside the guard window is the same congestion
  // episode: no second cut (the additive term is also skipped on decrease).
  aimd.on_router_feedback(0.5, kSecond + cfg.backoff_guard / 2);
  EXPECT_EQ(aimd.decreases(), 1u);
  // Past the guard, a new marked interval backs off again.
  aimd.on_mark_fraction(0.1, kSecond + 2 * cfg.backoff_guard);
  EXPECT_EQ(aimd.decreases(), 2u);
  EXPECT_DOUBLE_EQ(aimd.rate_bps(),
                   cfg.initial_rate_bps * cfg.decrease_factor * cfg.decrease_factor);
}

// ------------------------------------------- FlowTable determinism contract

// Deterministic xorshift input schedule shared by every path.
struct ZooDriveInputs {
  SimTime now;
  SimTime rtt;        // 0 = no sample this tick
  double loss;        // <= 0 = no loss interval this tick
  double mark;        // < 0 = no mark delivery; 0 = clean marked interval
};

std::vector<ZooDriveInputs> make_drive(int ticks) {
  std::vector<ZooDriveInputs> out;
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  const auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  for (int i = 0; i < ticks; ++i) {
    ZooDriveInputs in;
    in.now = (i + 1) * from_millis(200);
    in.rtt = (next() % 4 != 0) ? from_millis(20 + static_cast<int>(next() % 120)) : 0;
    in.loss = (next() % 11 == 0) ? 0.01 * static_cast<double>(1 + next() % 20) : 0.0;
    // Marks are delivered every tick (the source reports the interval's mark
    // fraction whenever packets arrived), mostly 0.
    in.mark = (next() % 7 == 0) ? 0.05 * static_cast<double>(1 + next() % 10) : 0.0;
    out.push_back(in);
  }
  return out;
}

// Drives a controller with the PelsSource control-clock order:
// rtt, loss interval, mark fraction, control tick.
void drive_object(CongestionController& cc, const std::vector<ZooDriveInputs>& drive) {
  for (const auto& in : drive) {
    if (in.rtt > 0) cc.set_rtt(in.rtt);
    if (in.loss > 0.0) cc.on_loss_interval(in.loss, in.now);
    cc.on_mark_fraction(in.mark, in.now);
    cc.on_control_tick(in.now);
  }
}

// Same schedule through direct apply_* calls on a table slot.
void drive_table(FlowTable& table, FlowSlot slot,
                 const std::vector<ZooDriveInputs>& drive) {
  for (const auto& in : drive) {
    if (in.rtt > 0) table.apply_rtt(slot, in.rtt);
    if (in.loss > 0.0) table.apply_loss_interval(slot, in.loss, in.now);
    table.apply_mark_fraction(slot, in.mark, in.now);
    table.apply_control_tick(slot, in.now);
  }
}

class ZooParityTest : public ::testing::TestWithParam<CcKind> {};

TEST_P(ZooParityTest, ObjectAndTablePathsAreBitIdentical) {
  const CcKind kind = GetParam();
  const CcZooConfig zoo;
  const auto drive = make_drive(200);

  // Path 1: standalone controller calls (single-flow apply on the
  // controller's own one-slot table).
  std::unique_ptr<TableController> object;
  switch (kind) {
    case CcKind::kCubic: object = std::make_unique<CubicController>(zoo.cubic); break;
    case CcKind::kDcqcn: object = std::make_unique<DcqcnController>(zoo.dcqcn); break;
    case CcKind::kSwift: object = std::make_unique<SwiftController>(zoo.swift); break;
    case CcKind::kScream:
      object = std::make_unique<ScreamLiteController>(zoo.scream);
      break;
    case CcKind::kMkc: FAIL() << "zoo parity covers the non-MKC kinds"; return;
  }
  drive_object(*object, drive);
  const FlowTable& applied = object->table();
  const FlowSlot applied_slot = object->slot();

  // Path 2: direct apply_* calls on a slot of a shared table.
  FlowTable direct(MkcConfig{}, GammaConfig{}, zoo);
  const FlowSlot direct_slot = direct.add_flow(kind);
  drive_table(direct, direct_slot, drive);

  EXPECT_EQ(object->rate_bps(), direct.rate_bps(direct_slot));
  // DCQCN never consumes RTT (no set_rtt override), so its applied-path
  // table legitimately has no sRTT column updates; compare for the rest.
  if (kind != CcKind::kDcqcn) {
    EXPECT_EQ(applied.srtt(applied_slot), direct.srtt(direct_slot));
  }
  switch (kind) {
    case CcKind::kCubic: {
      auto& cubic = static_cast<CubicController&>(*object);
      EXPECT_EQ(cubic.cwnd_pkts(), direct.cubic_cwnd(direct_slot));
      EXPECT_EQ(cubic.w_max(), direct.cubic_wmax(direct_slot));
      break;
    }
    case CcKind::kDcqcn: {
      auto& dcqcn = static_cast<DcqcnController&>(*object);
      EXPECT_EQ(dcqcn.alpha(), direct.dcqcn_alpha(direct_slot));
      EXPECT_EQ(dcqcn.target_rate_bps(), direct.dcqcn_target(direct_slot));
      EXPECT_EQ(dcqcn.recovery_stage(), direct.dcqcn_stage(direct_slot));
      break;
    }
    case CcKind::kSwift: {
      EXPECT_EQ(applied.swift_prev_rtt(applied_slot), direct.swift_prev_rtt(direct_slot));
      EXPECT_EQ(applied.min_rtt(applied_slot), direct.min_rtt(direct_slot));
      break;
    }
    case CcKind::kScream: {
      EXPECT_EQ(applied.min_rtt(applied_slot), direct.min_rtt(direct_slot));
      break;
    }
    case CcKind::kMkc: break;
  }
}

INSTANTIATE_TEST_SUITE_P(AllZooKinds, ZooParityTest,
                         ::testing::Values(CcKind::kCubic, CcKind::kDcqcn,
                                           CcKind::kSwift, CcKind::kScream),
                         [](const ::testing::TestParamInfo<CcKind>& info) {
                           // cc_kind_name() is for humans ("SCReAM-lite");
                           // gtest names must stay alphanumeric.
                           switch (info.param) {
                             case CcKind::kCubic: return std::string("Cubic");
                             case CcKind::kDcqcn: return std::string("Dcqcn");
                             case CcKind::kSwift: return std::string("Swift");
                             case CcKind::kScream: return std::string("Scream");
                             case CcKind::kMkc: break;
                           }
                           return std::string("Mkc");
                         });

TEST(FlowTableZooTest, ZooColumnsAreLazy) {
  FlowTable table(MkcConfig{}, GammaConfig{});
  table.reserve(64);
  for (int i = 0; i < 64; ++i) table.add_flow();
  EXPECT_FALSE(table.zoo_enabled());
  const std::size_t mkc_only = table.memory_bytes();
  const FlowSlot zoo_slot = table.add_flow(CcKind::kCubic);
  EXPECT_TRUE(table.zoo_enabled());
  EXPECT_EQ(table.kind(zoo_slot), CcKind::kCubic);
  EXPECT_GT(table.memory_bytes(), mkc_only);
}

}  // namespace
}  // namespace pels
