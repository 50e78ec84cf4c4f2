// Tests for src/queue: DropTail, Bernoulli random-drop, RED, strict
// priority, and weighted round-robin disciplines.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "queue/bernoulli.h"
#include "queue/drop_tail.h"
#include "queue/priority.h"
#include "queue/red.h"
#include "queue/wrr.h"
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

TEST(DropTailTest, PeekShowsHeadWithoutRemoving) {
  DropTailQueue q(10);
  q.enqueue(make_packet(100, Color::kGreen, 7));
  const Packet* head = q.peek();
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->seq, 7u);
  EXPECT_EQ(q.packet_count(), 1u);
  EXPECT_EQ(q.peek(), head);
}

TEST(DropTailTest, DropHandlerInvoked) {
  DropTailQueue q(1);
  std::vector<std::uint64_t> dropped;
  q.set_drop_handler([&](const Packet& p) { dropped.push_back(p.seq); });
  q.enqueue(make_packet(100, Color::kGreen, 1));
  q.enqueue(make_packet(100, Color::kGreen, 2));
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0], 2u);
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

// -------------------------------------------------------------- Bernoulli

TEST(BernoulliTest, ZeroProbabilityDropsNothing) {
  BernoulliDropQueue q(Rng(1), 0.0, 1000);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(q.enqueue(make_packet(100)));
  EXPECT_EQ(q.counters().total_drops(), 0u);
}

TEST(BernoulliTest, UnitProbabilityDropsEverything) {
  BernoulliDropQueue q(Rng(1), 1.0, 1000);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(q.enqueue(make_packet(100)));
  EXPECT_EQ(q.counters().total_drops(), 100u);
  EXPECT_EQ(q.packet_count(), 0u);
}

TEST(BernoulliTest, DropRateMatchesProbability) {
  BernoulliDropQueue q(Rng(2), 0.1, 1u << 20);
  const int n = 100000;
  for (int i = 0; i < n; ++i) q.enqueue(make_packet(100));
  const double rate = static_cast<double>(q.counters().total_drops()) / n;
  EXPECT_NEAR(rate, 0.1, 0.01);
}

TEST(BernoulliTest, ExemptColorNeverRandomDropped) {
  BernoulliDropQueue q(Rng(3), 1.0, 1u << 20);
  q.set_exempt(Color::kGreen, true);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(q.enqueue(make_packet(100, Color::kGreen)));
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(q.enqueue(make_packet(100, Color::kYellow)));
  EXPECT_EQ(q.packet_count(), 100u);
}

TEST(BernoulliTest, CapacityStillBounds) {
  BernoulliDropQueue q(Rng(4), 0.0, 5);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.enqueue(make_packet(100)));
  EXPECT_FALSE(q.enqueue(make_packet(100)));
}

TEST(BernoulliTest, SurvivorsKeepFifoOrder) {
  BernoulliDropQueue q(Rng(5), 0.5, 1000);
  for (std::uint64_t i = 0; i < 1000; ++i) q.enqueue(make_packet(100, Color::kGreen, i));
  std::uint64_t last = 0;
  bool first = true;
  while (auto p = pop_packet(q)) {
    if (!first) {
      EXPECT_GT(p->seq, last);
    }
    last = p->seq;
    first = false;
  }
}

// -------------------------------------------------------------------- RED

RedConfig small_red() {
  RedConfig cfg;
  cfg.min_th = 2.0;
  cfg.max_th = 6.0;
  cfg.max_p = 0.5;
  cfg.weight = 0.5;  // fast-moving average for compact tests
  cfg.limit_packets = 12;
  cfg.mean_tx_time = from_millis(1);
  return cfg;
}

TEST(RedTest, NoDropsBelowMinThreshold) {
  Scheduler sched;
  RedQueue q(sched, Rng(1), small_red());
  // Keep instantaneous queue at 1: avg stays below min_th.
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(q.enqueue(make_packet(100)));
    pop_packet(q);
  }
  EXPECT_EQ(q.counters().total_drops(), 0u);
}

TEST(RedTest, DropsAppearUnderSustainedLoad) {
  Scheduler sched;
  RedQueue q(sched, Rng(2), small_red());
  int drops = 0;
  for (int i = 0; i < 200; ++i) {
    if (!q.enqueue(make_packet(100))) ++drops;
    if (i % 3 == 0) pop_packet(q);  // drain slower than arrivals
  }
  EXPECT_GT(drops, 0);
  // RED must start dropping before the hard limit is the binding constraint.
  EXPECT_GT(q.average_queue(), small_red().min_th);
}

TEST(RedTest, ForcedDropAboveGentleCeiling) {
  Scheduler sched;
  RedConfig cfg = small_red();
  cfg.gentle = true;
  RedQueue q(sched, Rng(3), cfg);
  // Fill without draining: avg climbs past 2*max_th -> every arrival drops.
  int consecutive_drops = 0;
  for (int i = 0; i < 100; ++i) {
    if (!q.enqueue(make_packet(100))) {
      ++consecutive_drops;
    } else {
      consecutive_drops = 0;
    }
  }
  EXPECT_GT(consecutive_drops, 5);
}

TEST(RedTest, AverageDecaysWhileIdle) {
  Scheduler sched;
  RedConfig cfg = small_red();
  RedQueue q(sched, Rng(4), cfg);
  for (int i = 0; i < 8; ++i) q.enqueue(make_packet(100));
  while (pop_packet(q).has_value()) {
  }
  const double avg_before = q.average_queue();
  ASSERT_GT(avg_before, 0.0);
  // Let the queue sit idle for many mean-tx-times, then touch it.
  sched.schedule_at(from_millis(100), [] {});
  sched.run();
  q.enqueue(make_packet(100));
  EXPECT_LT(q.average_queue(), avg_before * 0.1);
}

TEST(RedTest, HardLimitNeverExceeded) {
  Scheduler sched;
  RedQueue q(sched, Rng(5), small_red());
  for (int i = 0; i < 500; ++i) q.enqueue(make_packet(100));
  EXPECT_LE(q.packet_count(), small_red().limit_packets);
}

// -------------------------------------------------------- StrictPriority

StrictPriorityQueue make_priority(std::vector<std::size_t> limits = {4, 4, 4}) {
  return StrictPriorityQueue(std::move(limits), &StrictPriorityQueue::classify_by_color);
}

TEST(PriorityTest, HigherBandAlwaysServedFirst) {
  auto q = make_priority();
  q.enqueue(make_packet(100, Color::kRed, 1));
  q.enqueue(make_packet(100, Color::kYellow, 2));
  q.enqueue(make_packet(100, Color::kGreen, 3));
  EXPECT_EQ(pop_packet(q)->color, Color::kGreen);
  EXPECT_EQ(pop_packet(q)->color, Color::kYellow);
  EXPECT_EQ(pop_packet(q)->color, Color::kRed);
}

TEST(PriorityTest, RedStarvedWhileGreenBacklogged) {
  auto q = make_priority({4, 4, 4});
  q.enqueue(make_packet(100, Color::kRed));
  for (int i = 0; i < 3; ++i) q.enqueue(make_packet(100, Color::kGreen));
  // Interleave new green arrivals with service: red never gets out.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(pop_packet(q)->color, Color::kGreen);
    q.enqueue(make_packet(100, Color::kGreen));
  }
  EXPECT_EQ(q.band_packet_count(2), 1u);
}

TEST(PriorityTest, RejectsInvalidConstruction) {
  const auto classify = &StrictPriorityQueue::classify_by_color;
  EXPECT_THROW(StrictPriorityQueue({}, classify), std::invalid_argument);
  EXPECT_THROW(StrictPriorityQueue({4, 0, 4}, classify), std::invalid_argument);
  EXPECT_THROW(StrictPriorityQueue({4, 4, 4}, nullptr), std::invalid_argument);
}

TEST(PriorityTest, PerBandLimits) {
  auto q = make_priority({1, 1, 2});
  EXPECT_TRUE(q.enqueue(make_packet(100, Color::kGreen)));
  EXPECT_FALSE(q.enqueue(make_packet(100, Color::kGreen)));  // green band full
  EXPECT_TRUE(q.enqueue(make_packet(100, Color::kRed)));
  EXPECT_TRUE(q.enqueue(make_packet(100, Color::kRed)));
  EXPECT_FALSE(q.enqueue(make_packet(100, Color::kRed)));  // red band full
  EXPECT_EQ(q.counters().drops[static_cast<std::size_t>(Color::kGreen)], 1u);
  EXPECT_EQ(q.counters().drops[static_cast<std::size_t>(Color::kRed)], 1u);
}

TEST(PriorityTest, FifoWithinBand) {
  auto q = make_priority();
  q.enqueue(make_packet(100, Color::kYellow, 1));
  q.enqueue(make_packet(100, Color::kYellow, 2));
  q.enqueue(make_packet(100, Color::kYellow, 3));
  EXPECT_EQ(pop_packet(q)->seq, 1u);
  EXPECT_EQ(pop_packet(q)->seq, 2u);
  EXPECT_EQ(pop_packet(q)->seq, 3u);
}

TEST(PriorityTest, AcksShareGreenBand) {
  auto q = make_priority();
  q.enqueue(make_packet(100, Color::kRed));
  q.enqueue(make_packet(40, Color::kAck));
  EXPECT_EQ(pop_packet(q)->color, Color::kAck);
}

TEST(PriorityTest, PeekMatchesDequeue) {
  auto q = make_priority();
  q.enqueue(make_packet(100, Color::kRed, 5));
  q.enqueue(make_packet(100, Color::kGreen, 6));
  const Packet* head = q.peek();
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->seq, 6u);
  EXPECT_EQ(pop_packet(q)->seq, 6u);
}

TEST(PriorityTest, CountsAggregateAcrossBands) {
  auto q = make_priority();
  q.enqueue(make_packet(100, Color::kGreen));
  q.enqueue(make_packet(200, Color::kRed));
  EXPECT_EQ(q.packet_count(), 2u);
  EXPECT_EQ(q.byte_count(), 300);
  pop_packet(q);
  EXPECT_EQ(q.packet_count(), 1u);
  EXPECT_EQ(q.byte_count(), 200);
}

// -------------------------------------------------------------------- WRR

/// Builds a two-child WRR: child 0 = green traffic, child 1 = internet.
std::unique_ptr<WrrQueue> make_wrr(double w0, double w1) {
  std::vector<WrrQueue::Child> children;
  children.push_back({std::make_unique<DropTailQueue>(1000), w0});
  children.push_back({std::make_unique<DropTailQueue>(1000), w1});
  return std::make_unique<WrrQueue>(
      std::move(children),
      [](const Packet& p) { return p.color == Color::kInternet ? std::size_t{1} : 0; },
      1000);
}

TEST(WrrTest, EqualWeightsAlternateService) {
  auto q = make_wrr(1.0, 1.0);
  for (int i = 0; i < 100; ++i) {
    q->enqueue(make_packet(500, Color::kGreen));
    q->enqueue(make_packet(500, Color::kInternet));
  }
  std::map<Color, int> served;
  for (int i = 0; i < 100; ++i) ++served[pop_packet(*q)->color];
  EXPECT_EQ(served[Color::kGreen], 50);
  EXPECT_EQ(served[Color::kInternet], 50);
}

TEST(WrrTest, WeightsControlByteShares) {
  auto q = make_wrr(3.0, 1.0);
  for (int i = 0; i < 400; ++i) {
    q->enqueue(make_packet(500, Color::kGreen));
    q->enqueue(make_packet(500, Color::kInternet));
  }
  std::map<Color, int> served;
  for (int i = 0; i < 200; ++i) ++served[pop_packet(*q)->color];
  EXPECT_NEAR(static_cast<double>(served[Color::kGreen]) / served[Color::kInternet], 3.0,
              0.3);
}

TEST(WrrTest, ByteBasedFairnessWithMixedPacketSizes) {
  // Child 0 sends 250-byte packets, child 1 sends 1000-byte packets; equal
  // weights must equalize *bytes*, so child 0 gets ~4x the packets.
  std::vector<WrrQueue::Child> children;
  children.push_back({std::make_unique<DropTailQueue>(4000), 1.0});
  children.push_back({std::make_unique<DropTailQueue>(4000), 1.0});
  WrrQueue q(std::move(children),
             [](const Packet& p) { return p.color == Color::kInternet ? std::size_t{1} : 0; },
             1000);
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
}

TEST(WrrTest, IdleChildForfeitsBandwidth) {
  // With the internet child empty, the video child gets everything.
  auto q = make_wrr(1.0, 1.0);
  for (int i = 0; i < 50; ++i) q->enqueue(make_packet(500, Color::kGreen));
  for (int i = 0; i < 50; ++i) EXPECT_EQ(pop_packet(*q)->color, Color::kGreen);
}

TEST(WrrTest, IdleChildCreditDoesNotAccumulate) {
  // DRR rule: an empty child's deficit resets, so a long-idle child cannot
  // burst far beyond its share when it wakes up.
  auto q = make_wrr(1.0, 1.0);
  for (int i = 0; i < 100; ++i) q->enqueue(make_packet(500, Color::kGreen));
  for (int i = 0; i < 100; ++i) pop_packet(*q);  // internet idle all along
  for (int i = 0; i < 20; ++i) {
    q->enqueue(make_packet(500, Color::kGreen));
    q->enqueue(make_packet(500, Color::kInternet));
  }
  std::map<Color, int> served;
  for (int i = 0; i < 20; ++i) ++served[pop_packet(*q)->color];
  EXPECT_NEAR(served[Color::kGreen], 10, 2);
}

TEST(WrrTest, DropsSurfaceThroughParentHandler) {
  std::vector<WrrQueue::Child> children;
  children.push_back({std::make_unique<DropTailQueue>(1), 1.0});
  children.push_back({std::make_unique<DropTailQueue>(1), 1.0});
  WrrQueue q(std::move(children),
             [](const Packet& p) { return p.color == Color::kInternet ? std::size_t{1} : 0; });
  int drops = 0;
  q.set_drop_handler([&](const Packet&) { ++drops; });
  q.enqueue(make_packet(100, Color::kGreen));
  EXPECT_FALSE(q.enqueue(make_packet(100, Color::kGreen)));
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(q.counters().total_drops(), 1u);
}

TEST(WrrTest, PeekIsSideEffectFreeAndConsistent) {
  auto q = make_wrr(1.0, 1.0);
  q->enqueue(make_packet(500, Color::kGreen, 1));
  q->enqueue(make_packet(500, Color::kInternet, 2));
  const Packet* h1 = q->peek();
  const Packet* h2 = q->peek();
  ASSERT_NE(h1, nullptr);
  EXPECT_EQ(h1, h2);  // repeated peeks agree
  EXPECT_EQ(pop_packet(*q)->seq, h1->seq);  // dequeue serves the peeked packet
}

TEST(WrrTest, EmptyQueueReturnsNothing) {
  auto q = make_wrr(1.0, 1.0);
  EXPECT_FALSE(pop_packet(*q).has_value());
  EXPECT_EQ(q->peek(), nullptr);
  EXPECT_EQ(q->packet_count(), 0u);
  EXPECT_EQ(q->byte_count(), 0);
}

TEST(WrrTest, FractionalWeightChildIsNotStarved) {
  // Regression: with quantum 5 and weight 0.1 the per-round credit
  // quantum * weight = 0.5 truncated to int64 is 0, so the child never
  // accumulated enough deficit to send and drr_select spun forever. The
  // credit is now rounded up and floored at 1 byte per round.
  std::vector<WrrQueue::Child> children;
  children.push_back({std::make_unique<DropTailQueue>(100), 1.0});
  children.push_back({std::make_unique<DropTailQueue>(100), 0.1});
  WrrQueue q(std::move(children),
             [](const Packet& p) { return p.color == Color::kInternet ? std::size_t{1} : 0; },
             5);
  for (int i = 0; i < 10; ++i) {
    q.enqueue(make_packet(4, Color::kGreen));
    q.enqueue(make_packet(4, Color::kInternet));
  }
  int internet_served = 0;
  for (int i = 0; i < 20; ++i) {
    auto p = pop_packet(q);
    ASSERT_TRUE(p.has_value());  // would hang/starve before the fix
    if (p->color == Color::kInternet) ++internet_served;
  }
  EXPECT_EQ(internet_served, 10);
}

TEST(WrrTest, PeekMatchesDequeueAcrossInterleavedEnqueues) {
  // The memoized selection must be invalidated by every enqueue: a new
  // arrival can change which child drr_select picks (e.g. wake an empty
  // child whose turn it is).
  auto q = make_wrr(1.0, 1.0);
  std::uint64_t seq = 0;
  q->enqueue(make_packet(500, Color::kGreen, seq++));
  for (int i = 0; i < 50; ++i) {
    const Packet* head = q->peek();
    ASSERT_NE(head, nullptr);
    q->enqueue(make_packet(500, i % 2 ? Color::kGreen : Color::kInternet, seq++));
    // The enqueue may have changed the selection; peek must agree with the
    // dequeue that follows it, not with the pre-enqueue snapshot.
    const Packet* fresh = q->peek();
    ASSERT_NE(fresh, nullptr);
    const std::uint64_t expect = fresh->seq;
    EXPECT_EQ(pop_packet(*q)->seq, expect);
  }
}

TEST(WrrTest, PeekTracksPriorityChildHeadChange) {
  // A StrictPriorityQueue child's head can change on enqueue (a green
  // arrival preempts a queued red packet). The cached head pointer must not
  // survive that.
  std::vector<WrrQueue::Child> children;
  children.push_back({std::make_unique<StrictPriorityQueue>(
                          std::vector<std::size_t>{10, 10, 10},
                          &StrictPriorityQueue::classify_by_color),
                      1.0});
  children.push_back({std::make_unique<DropTailQueue>(10), 1.0});
  WrrQueue q(std::move(children),
             [](const Packet& p) { return p.color == Color::kInternet ? std::size_t{1} : 0; },
             1000);
  q.enqueue(make_packet(500, Color::kRed, 1));
  const Packet* before = q.peek();
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->seq, 1u);
  q.enqueue(make_packet(500, Color::kGreen, 2));  // jumps ahead of red
  const Packet* after = q.peek();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->seq, 2u);
  EXPECT_EQ(pop_packet(q)->seq, 2u);
  EXPECT_EQ(pop_packet(q)->seq, 1u);
}

TEST(WrrTest, ChildAccessors) {
  auto q = make_wrr(2.0, 1.0);
  EXPECT_EQ(q->child_count(), 2u);
  EXPECT_DOUBLE_EQ(q->weight(0), 2.0);
  EXPECT_DOUBLE_EQ(q->weight(1), 1.0);
  q->enqueue(make_packet(100, Color::kInternet));
  EXPECT_EQ(q->child(1).packet_count(), 1u);
  EXPECT_EQ(q->child(0).packet_count(), 0u);
}

}  // namespace
}  // namespace pels
