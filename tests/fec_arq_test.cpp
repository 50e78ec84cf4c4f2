// Tests for the FEC comparator model and the ARQ (retransmission) agents —
// the two repair strategies the paper's §1 argues against.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "cc/tcp_like.h"
#include "net/topology.h"
#include "pels/arq.h"
#include "queue/drop_tail.h"
#include "util/rng.h"
#include "video/fec.h"

namespace pels {
namespace {

// ------------------------------------------------------------------- FEC

TEST(FecModelTest, NoLossAlwaysRecovers) {
  FecConfig cfg;
  EXPECT_DOUBLE_EQ(fec_block_recovery_probability(cfg, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(fec_expected_prefix_blocks(cfg, 0.0, 7), 7.0);
}

TEST(FecModelTest, TotalLossRecoversNothing) {
  FecConfig cfg;
  EXPECT_DOUBLE_EQ(fec_block_recovery_probability(cfg, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(fec_expected_prefix_blocks(cfg, 1.0, 7), 0.0);
}

TEST(FecModelTest, NoParityMatchesPlainBernoulli) {
  // m = 0: a block survives iff all k packets survive.
  FecConfig cfg;
  cfg.data_packets = 10;
  cfg.parity_packets = 0;
  const double p = 0.07;
  EXPECT_NEAR(fec_block_recovery_probability(cfg, p), std::pow(1.0 - p, 10), 1e-12);
}

TEST(FecModelTest, SinglePacketBlockWithOneParity) {
  // k = 1, m = 1: recovered unless both copies die: 1 - p^2.
  FecConfig cfg;
  cfg.data_packets = 1;
  cfg.parity_packets = 1;
  EXPECT_NEAR(fec_block_recovery_probability(cfg, 0.3), 1.0 - 0.09, 1e-12);
}

TEST(FecModelTest, MoreParityHelpsUntilOverheadDominates) {
  const double p = 0.10;
  double prev = 0.0;
  for (int m : {0, 1, 2, 4}) {
    FecConfig cfg;
    cfg.parity_packets = m;
    const double q = fec_block_recovery_probability(cfg, p);
    EXPECT_GT(q, prev);
    prev = q;
  }
  // ... but goodput efficiency is capped at 1 - overhead even at p = 0.
  FecConfig heavy;
  heavy.parity_packets = 4;
  EXPECT_NEAR(fec_goodput_efficiency(heavy, 0.0, 5), 1.0 - heavy.overhead(), 1e-12);
}

TEST(FecModelTest, MonteCarloMatchesClosedForm) {
  Rng rng(5);
  FecConfig cfg;
  cfg.data_packets = 10;
  cfg.parity_packets = 2;
  for (double p : {0.02, 0.1, 0.25}) {
    const double model = fec_expected_prefix_blocks(cfg, p, 6);
    const double sim = fec_simulate_prefix_blocks(cfg, p, 6, 100'000, rng);
    EXPECT_NEAR(sim, model, std::max(0.02 * model, 0.01)) << "p=" << p;
  }
}

TEST(FecModelTest, OverheadFormula) {
  FecConfig cfg;
  cfg.data_packets = 10;
  cfg.parity_packets = 2;
  EXPECT_NEAR(cfg.overhead(), 2.0 / 12.0, 1e-12);
  EXPECT_EQ(cfg.block_packets(), 12);
}

// ------------------------------------------------------------------- ARQ

struct ArqHarness {
  explicit ArqHarness(double loss, SimTime extra_delay = 0, ArqConfig config = {})
      : sim(3), topo(sim), cfg(config) {
    Host& vsrc = topo.add_host("vsrc");
    Router& r1 = topo.add_router("r1");
    Host& vdst = topo.add_host("vdst");
    const QueueFactory edge = [](double) { return std::make_unique<DropTailQueue>(2000); };
    // Random loss on the uncontended source edge: a corrupted packet still
    // takes wire time, which on the 2 mb/s hop would also starve the repairs.
    topo.connect(vsrc, r1, 10e6, from_millis(2), edge).first->set_corruption(loss, sim.make_rng(4));
    topo.add_link(r1, vdst, 2e6, from_millis(10) + extra_delay, edge);
    topo.add_link(vdst, r1, 2e6, from_millis(10) + extra_delay, edge);
    topo.compute_routes();
    source = std::make_unique<ArqSource>(sim, vsrc, 1, vdst.id(), cfg);
    sink = std::make_unique<ArqSink>(sim, vdst, 1, vsrc.id(), cfg);
    source->start(0);
  }
  void run(SimTime t) {
    sim.run_until(t);
    source->stop();
    sim.run_until(t + 2 * kSecond);
    sink->finalize(sim.now());
  }
  Simulation sim;
  Topology topo;
  ArqConfig cfg;
  std::unique_ptr<ArqSource> source;
  std::unique_ptr<ArqSink> sink;
};

TEST(ArqTest, LosslessPathNeedsNoRepair) {
  ArqHarness h(0.0);
  h.run(10 * kSecond);
  EXPECT_EQ(h.source->retransmissions(), 0u);
  EXPECT_EQ(h.sink->nacks_sent(), 0u);
  EXPECT_NEAR(h.sink->mean_prefix_fraction(), 1.0, 1e-9);
}

TEST(ArqTest, RepairsRandomLossWithinDeadline) {
  // 5% random loss, short RTT (~24 ms), 400 ms deadline: nearly everything
  // is repaired in time.
  ArqHarness h(0.05);
  h.run(20 * kSecond);
  EXPECT_GT(h.source->retransmissions(), 0u);
  EXPECT_GT(h.sink->mean_prefix_fraction(), 0.97);
}

TEST(ArqTest, LongRttDefeatsRepair) {
  // Same loss, but one-way propagation pushed past the deadline: repair
  // cannot arrive in time (the §1 argument in its purest form).
  ArqConfig cfg;
  cfg.deadline = from_millis(400);
  ArqHarness h(0.05, from_millis(500), cfg);
  h.run(20 * kSecond);
  // Originals arrive late too (510 ms one-way > deadline measured from send).
  EXPECT_LT(h.sink->mean_prefix_fraction(), 0.05);
}

TEST(ArqTest, RetransmissionBudgetIsRespected) {
  // Heavy loss: per-packet retransmissions must never exceed the budget.
  ArqConfig cfg;
  cfg.max_retransmissions = 2;
  ArqHarness h(0.5, 0, cfg);
  h.run(10 * kSecond);
  EXPECT_LE(h.source->retransmissions(),
            h.source->packets_sent());  // bounded: <= budget share of originals
  // With <=2 retx each packet lands w.p. ~1-0.5^3 = 0.875; the 25-packet
  // prefix rule then gives E[prefix]/25 ~ 0.26. Repair lands, but partially.
  EXPECT_GT(h.sink->mean_prefix_fraction(), 0.15);
  EXPECT_LT(h.sink->mean_prefix_fraction(), 0.40);
}

TEST(ArqTest, ScoresEveryFrame) {
  ArqHarness h(0.1);
  h.run(10 * kSecond);
  // 10 s at 10 fps = 100 frames (+/- the final partial one).
  EXPECT_GE(h.sink->prefix_fraction().size(), 99u);
  EXPECT_LE(h.sink->prefix_fraction().size(), 101u);
}

TEST(ArqTest, PacketsPerFrameDerivation) {
  ArqConfig cfg;
  cfg.rate_bps = 1e6;
  cfg.fps = 10.0;
  cfg.packet_size_bytes = 500;
  EXPECT_EQ(cfg.packets_per_frame(), 25);
}

}  // namespace
}  // namespace pels
