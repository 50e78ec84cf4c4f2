// Tests for src/queue: DropTail and the router queues' strict-priority bands
// and two-class deficit round robin.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "queue/best_effort.h"
#include "queue/drop_tail.h"
#include "queue/drr.h"
#include "queue/pels_queue.h"
#include "sim/scheduler.h"
#include "util/rng.h"
#include "pop_packet.h"

namespace pels {
namespace {

Packet make_packet(std::int32_t size, Color color = Color::kGreen,
                   std::uint64_t seq = 0) {
  Packet p;
  p.size_bytes = size;
  p.color = color;
  p.seq = seq;
  return p;
}

// --------------------------------------------------------------- DropTail

TEST(DropTailTest, FifoOrderPreserved) {
  DropTailQueue q(10);
  for (std::uint64_t i = 0; i < 5; ++i) q.enqueue(make_packet(100, Color::kGreen, i));
  for (std::uint64_t i = 0; i < 5; ++i) {
    auto p = pop_packet(q);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, i);
  }
  EXPECT_FALSE(pop_packet(q).has_value());
}

TEST(DropTailTest, PacketLimitEnforced) {
  DropTailQueue q(3);
  EXPECT_TRUE(q.enqueue(make_packet(100)));
  EXPECT_TRUE(q.enqueue(make_packet(100)));
  EXPECT_TRUE(q.enqueue(make_packet(100)));
  EXPECT_FALSE(q.enqueue(make_packet(100)));
  EXPECT_EQ(q.packet_count(), 3u);
  EXPECT_EQ(q.counters().total_drops(), 1u);
  EXPECT_EQ(q.counters().total_arrivals(), 4u);
}

TEST(DropTailTest, ByteLimitEnforced) {
  DropTailQueue q(100, 250);
  EXPECT_TRUE(q.enqueue(make_packet(100)));
  EXPECT_TRUE(q.enqueue(make_packet(100)));
  EXPECT_FALSE(q.enqueue(make_packet(100)));  // would reach 300 > 250
  EXPECT_EQ(q.byte_count(), 200);
}

TEST(DropTailTest, ByteCountTracksDequeues) {
  DropTailQueue q(10);
  q.enqueue(make_packet(100));
  q.enqueue(make_packet(200));
  EXPECT_EQ(q.byte_count(), 300);
  pop_packet(q);
  EXPECT_EQ(q.byte_count(), 200);
}

TEST(DropTailTest, RefusedPacketIsUntouchedAndHeadBytesTracksFront) {
  // The flat router queues count a class's drop against the packet the
  // FIFO refused, so a refusal must not move from it.
  DropTailQueue q(1);
  EXPECT_EQ(q.head_bytes(), Drr2::kIdle);
  EXPECT_TRUE(q.enqueue(make_packet(100, Color::kGreen, 1)));
  EXPECT_EQ(q.head_bytes(), 100);
  Packet refused = make_packet(300, Color::kRed, 2);
  refused.ack.emplace();
  EXPECT_FALSE(q.enqueue(std::move(refused)));
  EXPECT_EQ(refused.seq, 2u);
  EXPECT_EQ(refused.size_bytes, 300);
  EXPECT_TRUE(refused.is_ack());
  EXPECT_EQ(q.head_bytes(), 100);
  pop_packet(q);
  EXPECT_EQ(q.head_bytes(), Drr2::kIdle);
}

TEST(DropTailTest, PerColorCounters) {
  DropTailQueue q(2);
  q.enqueue(make_packet(100, Color::kGreen));
  q.enqueue(make_packet(100, Color::kRed));
  q.enqueue(make_packet(100, Color::kRed));  // dropped
  const auto& c = q.counters();
  EXPECT_EQ(c.arrivals[static_cast<std::size_t>(Color::kGreen)], 1u);
  EXPECT_EQ(c.arrivals[static_cast<std::size_t>(Color::kRed)], 2u);
  EXPECT_EQ(c.drops[static_cast<std::size_t>(Color::kRed)], 1u);
  EXPECT_EQ(c.drops[static_cast<std::size_t>(Color::kGreen)], 0u);
  pop_packet(q);
  EXPECT_EQ(c.departures[static_cast<std::size_t>(Color::kGreen)], 1u);
}

TEST(DropTailTest, RejectsLimitsThatDropEverything) {
  EXPECT_THROW(DropTailQueue(0), std::invalid_argument);
  EXPECT_THROW(DropTailQueue(10, 0), std::invalid_argument);
  EXPECT_THROW(DropTailQueue(10, -1), std::invalid_argument);
  EXPECT_NO_THROW(DropTailQueue(1, 1));
}

TEST(DropTailTest, FullLimitFromEmptyThenFifoAcrossTheWrap) {
  // The FIFO grows on demand instead of reserving its limit: filling it from
  // empty must still admit exactly `limit` packets, and refilling after a
  // partial drain (the live range wraps the slot array) must stay FIFO.
  DropTailQueue q(1000);
  for (std::uint64_t i = 0; i < 1000; ++i)
    ASSERT_TRUE(q.enqueue(make_packet(100, Color::kGreen, i)));
  EXPECT_FALSE(q.enqueue(make_packet(100, Color::kGreen, 1000)));  // packet 1001
  EXPECT_EQ(q.packet_count(), 1000u);
  for (std::uint64_t i = 0; i < 600; ++i) ASSERT_EQ(pop_packet(q)->seq, i);
  for (std::uint64_t i = 1000; i < 1600; ++i)
    ASSERT_TRUE(q.enqueue(make_packet(100, Color::kGreen, i)));
  EXPECT_FALSE(q.enqueue(make_packet(100, Color::kGreen, 1600)));
  for (std::uint64_t i = 600; i < 1600; ++i) ASSERT_EQ(pop_packet(q)->seq, i);
  EXPECT_FALSE(pop_packet(q).has_value());
  EXPECT_EQ(q.byte_count(), 0);
}

// -------------------------------------------- Strict priority (PelsQueue)
//
// The PELS group's strict-priority bands, driven through PelsQueue with no
// Internet traffic, so the WRR split always serves the group.

std::unique_ptr<PelsQueue> make_priority(Scheduler& sched,
                                         std::array<std::size_t, 3> limits = {4, 4, 4}) {
  PelsQueueConfig cfg;
  cfg.green_limit = limits[0];
  cfg.yellow_limit = limits[1];
  cfg.red_limit = limits[2];
  return std::make_unique<PelsQueue>(sched, cfg);
}

TEST(PriorityTest, HigherBandAlwaysServedFirst) {
  Scheduler sched;
  auto q = make_priority(sched);
  q->enqueue(make_packet(100, Color::kRed, 1));
  q->enqueue(make_packet(100, Color::kYellow, 2));
  q->enqueue(make_packet(100, Color::kGreen, 3));
  EXPECT_EQ(pop_packet(*q)->color, Color::kGreen);
  EXPECT_EQ(pop_packet(*q)->color, Color::kYellow);
  EXPECT_EQ(pop_packet(*q)->color, Color::kRed);
}

TEST(PriorityTest, RedStarvedWhileGreenBacklogged) {
  Scheduler sched;
  auto q = make_priority(sched, {4, 4, 4});
  q->enqueue(make_packet(100, Color::kRed));
  for (int i = 0; i < 3; ++i) q->enqueue(make_packet(100, Color::kGreen));
  // Interleave new green arrivals with service: red never gets out.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(pop_packet(*q)->color, Color::kGreen);
    q->enqueue(make_packet(100, Color::kGreen));
  }
  EXPECT_EQ(q->band_packet_count(2), 1u);
}

TEST(PriorityTest, RejectsInvalidConstruction) {
  Scheduler sched;
  EXPECT_THROW(make_priority(sched, {0, 4, 4}), std::invalid_argument);
  EXPECT_THROW(make_priority(sched, {4, 0, 4}), std::invalid_argument);
  EXPECT_THROW(make_priority(sched, {4, 4, 0}), std::invalid_argument);
  auto q = make_priority(sched);
  EXPECT_THROW(q->band_packet_count(3), std::out_of_range);
}

TEST(PriorityTest, PerBandLimits) {
  Scheduler sched;
  auto q = make_priority(sched, {1, 1, 2});
  EXPECT_TRUE(q->enqueue(make_packet(100, Color::kGreen)));
  EXPECT_FALSE(q->enqueue(make_packet(100, Color::kGreen)));  // green band full
  EXPECT_TRUE(q->enqueue(make_packet(100, Color::kRed)));
  EXPECT_TRUE(q->enqueue(make_packet(100, Color::kRed)));
  EXPECT_FALSE(q->enqueue(make_packet(100, Color::kRed)));  // red band full
  const PelsQueue& cq = *q;
  for (const ColorCounters* c : {&cq.counters(), &cq.pels_group_counters()}) {
    EXPECT_EQ(c->drops[static_cast<std::size_t>(Color::kGreen)], 1u);
    EXPECT_EQ(c->drops[static_cast<std::size_t>(Color::kRed)], 1u);
  }
}

TEST(PriorityTest, FifoWithinBand) {
  Scheduler sched;
  auto q = make_priority(sched);
  q->enqueue(make_packet(100, Color::kYellow, 1));
  q->enqueue(make_packet(100, Color::kYellow, 2));
  q->enqueue(make_packet(100, Color::kYellow, 3));
  EXPECT_EQ(pop_packet(*q)->seq, 1u);
  EXPECT_EQ(pop_packet(*q)->seq, 2u);
  EXPECT_EQ(pop_packet(*q)->seq, 3u);
}

TEST(PriorityTest, AcksShareGreenBand) {
  Scheduler sched;
  auto q = make_priority(sched);
  q->enqueue(make_packet(100, Color::kRed));
  q->enqueue(make_packet(40, Color::kAck));
  EXPECT_EQ(q->band_packet_count(0), 1u);
  EXPECT_EQ(pop_packet(*q)->color, Color::kAck);
}

TEST(PriorityTest, CountsAggregateAcrossBands) {
  Scheduler sched;
  auto q = make_priority(sched);
  q->enqueue(make_packet(100, Color::kGreen));
  q->enqueue(make_packet(200, Color::kRed));
  q->enqueue(make_packet(50, Color::kInternet));
  EXPECT_EQ(q->packet_count(), 3u);
  EXPECT_EQ(q->byte_count(), 350);
  // The group's first 1500 B round of credit serves green, then red.
  EXPECT_EQ(pop_packet(*q)->color, Color::kGreen);
  EXPECT_EQ(q->packet_count(), 2u);
  EXPECT_EQ(q->byte_count(), 250);
  EXPECT_EQ(pop_packet(*q)->color, Color::kRed);
  EXPECT_EQ(q->packet_count(), 1u);
  EXPECT_EQ(q->byte_count(), 50);
}

// -------------------------------------------------------------------- WRR
//
// The two-class deficit round robin (Drr2) every router queue splits its
// link with, tested directly and through PelsQueue / BestEffortQueue.

/// Serves `n` packets from two always-backlogged classes of `size0` and
/// `size1`-byte packets; returns the bytes served per class.
std::array<std::int64_t, 2> drr_bytes(Drr2& drr, int n, std::int64_t size0,
                                      std::int64_t size1) {
  std::array<std::int64_t, 2> bytes{0, 0};
  for (int i = 0; i < n; ++i) {
    const int c = drr.select(size0, size1);
    bytes[static_cast<std::size_t>(c)] += c == 0 ? size0 : size1;
  }
  return bytes;
}

/// A best-effort queue split `w0`:`w1` between its video and Internet FIFOs.
/// No simulated time passes in these tests, so its random drop never arms.
std::unique_ptr<BestEffortQueue> make_wrr(Scheduler& sched, double w0, double w1) {
  BestEffortQueueConfig cfg;
  cfg.video_weight = w0;
  cfg.internet_weight = w1;
  cfg.video_limit = cfg.internet_limit = 1000;
  return std::make_unique<BestEffortQueue>(sched, Rng(1), cfg);
}

TEST(WrrTest, EqualWeightsAlternateService) {
  Scheduler sched;
  auto q = make_wrr(sched, 1.0, 1.0);
  for (int i = 0; i < 100; ++i) {
    q->enqueue(make_packet(750, Color::kGreen));
    q->enqueue(make_packet(750, Color::kInternet));
  }
  // Per round each class's 1500 B credit serves two 750 B packets.
  std::map<Color, int> served;
  for (int i = 0; i < 100; ++i) ++served[pop_packet(*q)->color];
  EXPECT_EQ(served[Color::kGreen], 50);
  EXPECT_EQ(served[Color::kInternet], 50);
}

TEST(WrrTest, WeightsControlByteShares) {
  Drr2 drr(3.0, 1.0);
  // First pick: both classes earn one round of credit (4500 B and 1500 B),
  // then class 0 spends 500 B of its share.
  EXPECT_EQ(drr.select(500, 500), 0);
  EXPECT_EQ(drr.deficit(0), 4000);
  EXPECT_EQ(drr.deficit(1), 1500);
  const auto bytes = drr_bytes(drr, 200, 500, 500);
  EXPECT_NEAR(static_cast<double>(bytes[0]) / static_cast<double>(bytes[1]), 3.0, 0.3);
}

TEST(WrrTest, ByteBasedFairnessWithMixedPacketSizes) {
  // The PELS group sends 250-byte packets, the Internet FIFO 1000-byte
  // packets; equal weights must equalize *bytes*, so the group gets ~4x the
  // packets.
  Scheduler sched;
  PelsQueueConfig cfg;
  cfg.green_limit = cfg.internet_limit = 4000;
  PelsQueue q(sched, cfg);
  for (int i = 0; i < 2000; ++i) {
    q.enqueue(make_packet(250, Color::kGreen));
    q.enqueue(make_packet(1000, Color::kInternet));
  }
  std::int64_t bytes[2] = {0, 0};
  for (int i = 0; i < 1000; ++i) {
    auto p = pop_packet(q);
    bytes[p->color == Color::kInternet ? 1 : 0] += p->size_bytes;
  }
  EXPECT_NEAR(static_cast<double>(bytes[0]) / static_cast<double>(bytes[1]), 1.0, 0.1);
  Drr2 drr(1.0, 1.0);
  const auto direct = drr_bytes(drr, 1000, 250, 1000);
  EXPECT_NEAR(static_cast<double>(direct[0]) / static_cast<double>(direct[1]), 1.0, 0.1);
}

TEST(WrrTest, IdleChildForfeitsBandwidth) {
  // With the Internet FIFO empty, the video FIFO gets everything.
  Scheduler sched;
  auto q = make_wrr(sched, 1.0, 1.0);
  for (int i = 0; i < 50; ++i) q->enqueue(make_packet(500, Color::kGreen));
  for (int i = 0; i < 50; ++i) EXPECT_EQ(pop_packet(*q)->color, Color::kGreen);
}

TEST(WrrTest, IdleChildCreditDoesNotAccumulate) {
  // DRR rule: an empty class's deficit resets, so a long-idle class cannot
  // burst far beyond its share when it wakes up.
  Scheduler sched;
  auto q = make_wrr(sched, 1.0, 1.0);
  for (int i = 0; i < 100; ++i) q->enqueue(make_packet(500, Color::kGreen));
  for (int i = 0; i < 100; ++i) pop_packet(*q);  // Internet idle all along
  for (int i = 0; i < 20; ++i) {
    q->enqueue(make_packet(500, Color::kGreen));
    q->enqueue(make_packet(500, Color::kInternet));
  }
  std::map<Color, int> served;
  for (int i = 0; i < 20; ++i) ++served[pop_packet(*q)->color];
  EXPECT_NEAR(served[Color::kGreen], 10, 2);

  Drr2 drr(1.0, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(drr.select(500, Drr2::kIdle), 0);
  EXPECT_EQ(drr.deficit(1), 0);  // passed over while idle: nothing banked
}

TEST(WrrTest, EmptyQueueReturnsNothing) {
  Scheduler sched;
  auto q = make_wrr(sched, 1.0, 1.0);
  EXPECT_FALSE(pop_packet(*q).has_value());
  EXPECT_EQ(q->packet_count(), 0u);
  EXPECT_EQ(q->byte_count(), 0);
  // Both classes idle: no pick and no state change.
  Drr2 drr(1.0, 1.0);
  EXPECT_EQ(drr.select(Drr2::kIdle, Drr2::kIdle), -1);
  EXPECT_EQ(drr.deficit(0), 0);
  EXPECT_EQ(drr.deficit(1), 0);
}

TEST(WrrTest, FractionalWeightChildIsNotStarved) {
  // Regression: a per-round credit quantum * weight below one byte, truncated
  // to int64, is 0, so the class never accumulated enough deficit to send
  // and the DRR pick spun forever. The credit is rounded up and floored at
  // 1 byte per round.
  Scheduler sched;
  auto q = make_wrr(sched, 1.0, 1e-4);
  // Class 0 needs four 1500 B rounds for a 5000 B head; class 1 earns one
  // byte in each of them, not zero.
  Drr2 drr(1.0, 1e-4);
  EXPECT_EQ(drr.select(5000, 4), 0);
  EXPECT_EQ(drr.deficit(0), 1000);
  EXPECT_EQ(drr.deficit(1), 4);
  for (int i = 0; i < 10; ++i) {
    q->enqueue(make_packet(4, Color::kGreen));
    q->enqueue(make_packet(4, Color::kInternet));
  }
  int internet_served = 0;
  for (int i = 0; i < 20; ++i) {
    auto p = pop_packet(*q);
    ASSERT_TRUE(p.has_value());  // would hang/starve before the fix
    if (p->color == Color::kInternet) ++internet_served;
  }
  EXPECT_EQ(internet_served, 10);
}

}  // namespace
}  // namespace pels
