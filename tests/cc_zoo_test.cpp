// Tests for the congestion-controller zoo (cc/cubic, cc/dcqcn, cc/swift,
// cc/scream_lite) on FlowTable slots: per-kernel dynamics, the ECN-mark
// reactions the fairness matrix depends on, and the FlowTable determinism
// contract — a slot in a table shared with flows of every other kind ends
// bit-for-bit where the same inputs leave a slot alone in its own table.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "cc/flow_table.h"
#include "one_flow.h"

namespace pels {
namespace {

// ------------------------------------------------------------------ CUBIC

TEST(CubicTest, SlowStartRampBeforeFirstEvent) {
  CubicConfig cfg;
  OneFlow cubic(CcKind::kCubic, {.cubic = cfg});
  cubic.rtt(from_millis(100));
  cubic.tick(0);
  EXPECT_DOUBLE_EQ(cubic.table.cubic_cwnd(cubic.slot),
                   cfg.initial_cwnd_pkts * cfg.slow_start_growth);
  cubic.tick(from_millis(200));
  EXPECT_DOUBLE_EQ(cubic.table.cubic_cwnd(cubic.slot),
                   cfg.initial_cwnd_pkts * cfg.slow_start_growth * cfg.slow_start_growth);
}

TEST(CubicTest, LossEventCutsWindowAndRemembersPlateau) {
  CubicConfig cfg;
  OneFlow cubic(CcKind::kCubic, {.cubic = cfg});
  cubic.rtt(from_millis(100));
  const double before = cubic.table.cubic_cwnd(cubic.slot);
  cubic.loss(0.1, from_millis(500));
  EXPECT_DOUBLE_EQ(cubic.table.cubic_wmax(cubic.slot), before);
  EXPECT_DOUBLE_EQ(cubic.table.cubic_cwnd(cubic.slot), before * cfg.beta);
  EXPECT_DOUBLE_EQ(cubic.rate_bps(),
                   cubic_rate_from_cwnd(cfg, before * cfg.beta, from_millis(100)));
}

TEST(CubicTest, EcnMarkBacksOffGentlerThanLoss) {
  CubicConfig cfg;
  OneFlow lossy(CcKind::kCubic, {.cubic = cfg});
  OneFlow marked(CcKind::kCubic, {.cubic = cfg});
  lossy.rtt(from_millis(100));
  marked.rtt(from_millis(100));
  lossy.loss(0.1, 0);
  marked.mark(0.1, 0);
  EXPECT_DOUBLE_EQ(lossy.table.cubic_cwnd(lossy.slot), cfg.initial_cwnd_pkts * cfg.beta);
  EXPECT_DOUBLE_EQ(marked.table.cubic_cwnd(marked.slot), cfg.initial_cwnd_pkts * cfg.ecn_beta);
  EXPECT_GT(marked.table.cubic_cwnd(marked.slot), lossy.table.cubic_cwnd(lossy.slot));
}

TEST(CubicTest, ConcaveThenConvexGrowthAroundPlateau) {
  // After an event the window follows W(t) = C (t-K)^3 + W_max: per-tick
  // increments shrink approaching the plateau (concave region) and grow
  // beyond it (convex probing). A long RTT keeps the Reno-friendly floor
  // negligible so the pure cubic curve is observable.
  CubicConfig cfg;
  cfg.initial_cwnd_pkts = 100.0;
  OneFlow cubic(CcKind::kCubic, {.cubic = cfg});
  cubic.rtt(from_millis(500));
  cubic.loss(0.1, 0);
  const double k_sec = std::cbrt(cfg.initial_cwnd_pkts * (1.0 - cfg.beta) / cfg.c);

  std::vector<double> t_sec;
  std::vector<double> cwnd;
  for (int i = 1; i <= 34; ++i) {
    const SimTime now = i * from_millis(250);
    cubic.tick(now);
    t_sec.push_back(to_seconds(now));
    cwnd.push_back(cubic.table.cubic_cwnd(cubic.slot));
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
  OneFlow cubic(CcKind::kCubic, {.cubic = cfg});
  const SimTime rtt = from_millis(50);
  cubic.rtt(rtt);
  cubic.loss(0.1, 0);
  const SimTime now = 3 * kSecond;  // past the w_est/target crossover
  cubic.tick(now);

  const double t = to_seconds(now);
  const double k = std::cbrt(cfg.initial_cwnd_pkts * (1.0 - cfg.beta) / cfg.c);
  const double target =
      cfg.initial_cwnd_pkts + cfg.c * (t - k) * (t - k) * (t - k);
  const double w_est = cfg.initial_cwnd_pkts * cfg.beta +
                       3.0 * (1.0 - cfg.beta) / (1.0 + cfg.beta) * (t / to_seconds(rtt));
  ASSERT_GT(w_est, target);  // precondition: the friendly region governs here
  EXPECT_DOUBLE_EQ(cubic.table.cubic_cwnd(cubic.slot), w_est);
}

// ------------------------------------------------------------------ DCQCN

TEST(DcqcnTest, MarkedIntervalCutsRateByHalfAlpha) {
  DcqcnConfig cfg;
  OneFlow dcqcn(CcKind::kDcqcn, {.dcqcn = cfg});
  dcqcn.mark(0.3, 0);
  // initial_alpha = 1: the first cut halves RC and remembers it as RT.
  EXPECT_DOUBLE_EQ(dcqcn.rate_bps(), cfg.initial_rate_bps * 0.5);
  EXPECT_DOUBLE_EQ(dcqcn.table.dcqcn_target(dcqcn.slot), cfg.initial_rate_bps);
  EXPECT_EQ(dcqcn.table.dcqcn_stage(dcqcn.slot), 0);
}

TEST(DcqcnTest, AlphaDecaysOnCleanIntervals) {
  DcqcnConfig cfg;
  OneFlow dcqcn(CcKind::kDcqcn, {.dcqcn = cfg});
  dcqcn.mark(0.3, 0);
  const double alpha_after_mark = dcqcn.table.dcqcn_alpha(dcqcn.slot);
  for (int i = 0; i < 3; ++i) dcqcn.mark(0.0, 0);
  EXPECT_DOUBLE_EQ(dcqcn.table.dcqcn_alpha(dcqcn.slot),
                   alpha_after_mark * std::pow(1.0 - cfg.alpha_g, 3.0));
}

TEST(DcqcnTest, FastRecoveryHalvesGapThenActiveIncreaseRaisesTarget) {
  DcqcnConfig cfg;
  OneFlow dcqcn(CcKind::kDcqcn, {.dcqcn = cfg});
  dcqcn.mark(0.3, 0);  // RC = 64k, RT = 128k
  double expected_rate = cfg.initial_rate_bps * 0.5;
  for (int stage = 1; stage <= cfg.fast_recovery_stages; ++stage) {
    dcqcn.mark(0.0, 0);
    expected_rate = 0.5 * (cfg.initial_rate_bps + expected_rate);
    EXPECT_DOUBLE_EQ(dcqcn.rate_bps(), expected_rate) << "stage " << stage;
    EXPECT_DOUBLE_EQ(dcqcn.table.dcqcn_target(dcqcn.slot), cfg.initial_rate_bps)
        << "target must not move during fast recovery";
  }
  dcqcn.mark(0.0, 0);  // first active-increase stage
  EXPECT_DOUBLE_EQ(dcqcn.table.dcqcn_target(dcqcn.slot), cfg.initial_rate_bps + cfg.rate_ai_bps);
  EXPECT_GT(dcqcn.rate_bps(), expected_rate);
}

TEST(DcqcnTest, LossActsLikeMarkedInterval) {
  DcqcnConfig cfg;
  OneFlow marked(CcKind::kDcqcn, {.dcqcn = cfg});
  OneFlow lossy(CcKind::kDcqcn, {.dcqcn = cfg});
  marked.mark(0.3, 0);
  lossy.loss(0.3, 0);
  EXPECT_DOUBLE_EQ(lossy.rate_bps(), marked.rate_bps());
  EXPECT_DOUBLE_EQ(lossy.table.dcqcn_alpha(lossy.slot), marked.table.dcqcn_alpha(marked.slot));
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
  OneFlow scream(CcKind::kScream, {.scream = cfg});
  scream.rtt(from_millis(40));  // primes min_rtt: qdelay 0, full headroom
  scream.tick(0);
  EXPECT_DOUBLE_EQ(scream.rate_bps(), cfg.initial_rate_bps + cfg.increase_bps);
  // Half the target qdelay leaves half the headroom.
  OneFlow half(CcKind::kScream, {.scream = cfg});
  half.rtt(from_millis(40));
  half.rtt(from_millis(40) + cfg.qdelay_target / 2);
  half.tick(0);
  EXPECT_DOUBLE_EQ(half.rate_bps(), cfg.initial_rate_bps + cfg.increase_bps * 0.5);
}

TEST(ScreamTest, ShrinkProportionalToOvershoot) {
  ScreamLiteConfig cfg;
  OneFlow scream(CcKind::kScream, {.scream = cfg});
  scream.rtt(from_millis(40));
  scream.rtt(from_millis(40) + 2 * cfg.qdelay_target);  // overshoot = 1 (capped)
  scream.tick(0);
  EXPECT_DOUBLE_EQ(scream.rate_bps(),
                   cfg.initial_rate_bps * (1.0 - cfg.decrease_gain));
}

TEST(ScreamTest, LossAndMarkBackoffsFloorAtBeta) {
  ScreamLiteConfig cfg;
  OneFlow scream(CcKind::kScream, {.scream = cfg});
  scream.loss(0.5, 0);  // 1 - p = 0.5 < loss_beta: floored
  EXPECT_DOUBLE_EQ(scream.rate_bps(), cfg.initial_rate_bps * cfg.loss_beta);
  OneFlow gentle(CcKind::kScream, {.scream = cfg});
  gentle.mark(0.02, 0);  // 1 - f = 0.98 > mark_beta: proportional
  EXPECT_DOUBLE_EQ(gentle.rate_bps(), cfg.initial_rate_bps * 0.98);
  OneFlow floored(CcKind::kScream, {.scream = cfg});
  floored.mark(0.5, 0);
  EXPECT_DOUBLE_EQ(floored.rate_bps(), cfg.initial_rate_bps * cfg.mark_beta);
}

// -------------------------------------------- ECN regressions (TFRC, AIMD)

TEST(TfrcEcnTest, MarkedNotDroppedIntervalReducesRate) {
  // Satellite regression: a clean-delivery interval whose packets carried CE
  // marks must reduce the rate exactly like a lossy one (RFC 8087 §4.1).
  TfrcLiteConfig cfg;
  OneFlow tfrc(CcKind::kTfrc, {.tfrc = cfg});
  OneFlow lossy(CcKind::kTfrc, {.tfrc = cfg});
  // Ramp both to a high operating point first (idle-link feedback doubles
  // the rate while no loss event has been seen).
  for (int i = 0; i < 5; ++i) {
    tfrc.feedback(-1.0, i * kSecond);
    lossy.feedback(-1.0, i * kSecond);
  }
  const double before = tfrc.rate_bps();
  tfrc.mark(0.2, 5 * kSecond);
  EXPECT_LT(tfrc.rate_bps(), before);
  EXPECT_GT(tfrc.table.tfrc_smoothed_loss(tfrc.slot), 0.0);

  lossy.loss(0.2, 5 * kSecond);
  EXPECT_DOUBLE_EQ(tfrc.rate_bps(), lossy.rate_bps());
}

TEST(TfrcEcnTest, MarkFreeIntervalDoesNotDoubleDecay) {
  // The mark path folds into the loss-event EWMA only when f > 0; a clean
  // interval must not decay the estimate a second time (the loss path
  // already saw its own interval sample).
  TfrcLiteConfig cfg;
  OneFlow tfrc(CcKind::kTfrc, {.tfrc = cfg});
  tfrc.mark(0.2, 0);
  const double smoothed = tfrc.table.tfrc_smoothed_loss(tfrc.slot);
  const double rate = tfrc.rate_bps();
  tfrc.mark(0.0, kSecond);
  EXPECT_DOUBLE_EQ(tfrc.table.tfrc_smoothed_loss(tfrc.slot), smoothed);
  EXPECT_DOUBLE_EQ(tfrc.rate_bps(), rate);
}

TEST(AimdEcnTest, MarkBacksOffUnderSharedGuard) {
  AimdConfig cfg;
  OneFlow aimd(CcKind::kAimd, {.aimd = cfg});
  aimd.mark(0.1, kSecond);
  EXPECT_DOUBLE_EQ(aimd.rate_bps(), cfg.initial_rate_bps * cfg.decrease_factor);
  EXPECT_EQ(aimd.table.aimd_decreases(aimd.slot), 1);
  // A positive router label inside the guard window is the same congestion
  // episode: no second cut (the additive term is also skipped on decrease).
  aimd.feedback(0.5, kSecond + cfg.backoff_guard / 2);
  EXPECT_EQ(aimd.table.aimd_decreases(aimd.slot), 1);
  // Past the guard, a new marked interval backs off again.
  aimd.mark(0.1, kSecond + 2 * cfg.backoff_guard);
  EXPECT_EQ(aimd.table.aimd_decreases(aimd.slot), 2);
  EXPECT_DOUBLE_EQ(aimd.rate_bps(),
                   cfg.initial_rate_bps * cfg.decrease_factor * cfg.decrease_factor);
}

// ------------------------------------------- FlowTable determinism contract

// Deterministic xorshift input schedule: one control tick of PelsSource
// signals per entry.
struct ZooDriveInputs {
  SimTime now;
  SimTime rtt;      // 0 = no sample this tick
  bool silent;      // the feedback watchdog fires instead of a fresh label
  double p;         // fresh router label (when not silent)
  double p_fgs;     // its FGS-layer loss, for the gamma update
  double loss;      // < 0 = no loss interval this tick (too few bytes)
  double mark;      // mark fraction, delivered every tick, mostly 0
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
  const auto unit = [&next] { return static_cast<double>(next() % 1000) / 1000.0; };
  for (int i = 0; i < ticks; ++i) {
    ZooDriveInputs in;
    in.now = (i + 1) * from_millis(200);
    in.rtt = (next() % 4 != 0) ? from_millis(20 + static_cast<int>(next() % 120)) : 0;
    in.silent = next() % 13 == 0;
    in.p = -1.0 + 1.5 * unit();
    in.p_fgs = unit();
    in.loss = next() % 5 == 0   ? -1.0
              : next() % 3 == 0 ? 0.01 * static_cast<double>(1 + next() % 20)
                                : 0.0;
    in.mark = (next() % 7 == 0) ? 0.05 * static_cast<double>(1 + next() % 10) : 0.0;
    out.push_back(in);
  }
  return out;
}

constexpr CcKind kAllKinds[] = {CcKind::kMkc,   CcKind::kCubic,        CcKind::kDcqcn,
                                CcKind::kSwift, CcKind::kScream,       CcKind::kAimd,
                                CcKind::kTfrc,  CcKind::kKellyClassic, CcKind::kRem};

// No slot's update reads another's: one slot of every kind in one table,
// ticked with apply_feedback_all, ends bit-for-bit where the same inputs
// leave each kind alone in its own table through the per-slot calls (for
// MKC, a table without zoo columns).
TEST(FlowTableZooTest, SharedTableSlotsMatchSoloSlotsBitForBit) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto drive = make_drive(300);
  FlowTable shared(MkcConfig{}, GammaConfig{});
  std::vector<FlowSlot> slots;
  std::vector<std::unique_ptr<OneFlow>> solo;
  for (const CcKind kind : kAllKinds) {
    slots.push_back(shared.add_flow(kind));
    solo.push_back(std::make_unique<OneFlow>(kind));
  }

  for (const ZooDriveInputs& in : drive) {
    for (const FlowSlot slot : slots) {
      if (in.rtt > 0) shared.apply_rtt(slot, in.rtt);
    }
    if (in.silent) {
      for (const FlowSlot slot : slots) shared.apply_silence(slot);
    } else {
      shared.apply_feedback_all(in.p, in.p_fgs, in.now);
    }
    for (const FlowSlot slot : slots) {
      if (in.loss >= 0.0) shared.apply_loss_interval(slot, in.loss, in.now);
      shared.apply_mark_fraction(slot, in.mark, in.now);
      shared.apply_control_tick(slot, in.now);
    }
    for (const auto& flow : solo) {
      if (in.rtt > 0) flow->rtt(in.rtt);
      if (in.silent) {
        flow->silence();
      } else {
        flow->feedback(in.p, in.now);
        flow->table.apply_gamma(flow->slot, in.p_fgs);
      }
      if (in.loss >= 0.0) flow->loss(in.loss, in.now);
      flow->mark(in.mark, in.now);
      flow->tick(in.now);
    }
  }

  for (std::size_t k = 0; k < slots.size(); ++k) {
    const FlowTable& one = solo[k]->table;
    const FlowSlot a = slots[k];
    const FlowSlot b = solo[k]->slot;
    SCOPED_TRACE(cc_kind_name(kAllKinds[k]));
    EXPECT_EQ(bits(shared.rate_bps(a)), bits(one.rate_bps(b)));
    EXPECT_EQ(bits(shared.gamma(a)), bits(one.gamma(b)));
    EXPECT_EQ(shared.mkc_updates(a), one.mkc_updates(b));
    EXPECT_EQ(shared.silence_ticks(a), one.silence_ticks(b));
    EXPECT_EQ(shared.in_silence(a), one.in_silence(b));
    if (kAllKinds[k] == CcKind::kMkc) {
      EXPECT_FALSE(one.zoo_enabled());
      EXPECT_GT(one.mkc_updates(b), 0u);
      continue;
    }
    EXPECT_EQ(shared.srtt(a), one.srtt(b));
    EXPECT_EQ(shared.min_rtt(a), one.min_rtt(b));
    EXPECT_EQ(bits(shared.cubic_cwnd(a)), bits(one.cubic_cwnd(b)));
    EXPECT_EQ(bits(shared.cubic_wmax(a)), bits(one.cubic_wmax(b)));
    EXPECT_EQ(bits(shared.dcqcn_alpha(a)), bits(one.dcqcn_alpha(b)));
    EXPECT_EQ(shared.dcqcn_stage(a), one.dcqcn_stage(b));
    EXPECT_EQ(shared.swift_prev_rtt(a), one.swift_prev_rtt(b));
    // Every kind moved off its initial rate: the schedule reached it.
    EXPECT_NE(one.rate_bps(b), CcZooConfig{}.aimd.initial_rate_bps);
  }
}

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
