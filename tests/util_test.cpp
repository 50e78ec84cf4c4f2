// Tests for src/util: time conversion, RNG determinism and distribution
// sanity, statistics accumulators, table rendering, fixed-capacity callables,
// the ring-buffer FIFO.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "util/inplace_function.h"
#include "util/ring_buffer.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/time.h"

namespace pels {
namespace {

// ---------------------------------------------------------------- SimTime

TEST(SimTimeTest, SecondConversionRoundTrips) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.5), kSecond / 2);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_seconds(from_seconds(3.25)), 3.25);
}

TEST(SimTimeTest, MillisAndMicrosScale) {
  EXPECT_EQ(from_millis(1.0), kMillisecond);
  EXPECT_EQ(from_micros(1.0), kMicrosecond);
  EXPECT_EQ(from_millis(30.0), 30 * kMillisecond);
  EXPECT_DOUBLE_EQ(to_millis(from_millis(16.5)), 16.5);
}

TEST(SimTimeTest, ConversionRoundsToNearestNanosecond) {
  EXPECT_EQ(from_seconds(1e-9), 1);
  EXPECT_EQ(from_seconds(1.4e-9), 1);
  EXPECT_EQ(from_seconds(1.6e-9), 2);
}

TEST(SimTimeTest, TransmissionTimeMatchesBandwidth) {
  // 500 bytes at 4 mb/s = 1 ms.
  EXPECT_EQ(transmission_time(500, 4e6), kMillisecond);
  // 1500 bytes at 10 mb/s = 1.2 ms.
  EXPECT_EQ(transmission_time(1500, 10e6), from_micros(1200));
  EXPECT_EQ(transmission_time(0, 1e6), 0);
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(42), b(43);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(RngTest, DifferentStreamsDiffer) {
  Rng a(42, 0), b(42, 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(RngTest, SplitIsDeterministicAndOrderIndependent) {
  Rng parent1(7);
  Rng parent2(7);
  parent2.next_u64();  // advancing the parent must not change children
  Rng c1 = parent1.split(5);
  Rng c2 = parent2.split(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(1);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntSingleValue) {
  Rng rng(1);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(2);
  const double p = 0.1;
  int hits = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(p);
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.005);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(4);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.1);
  EXPECT_GT(s.min(), 0.0);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(5);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(RngTest, GeometricMeanMatches) {
  Rng rng(6);
  const double p = 0.25;
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(static_cast<double>(rng.geometric(p)));
  // E[failures before success] = (1-p)/p = 3.
  EXPECT_NEAR(s.mean(), 3.0, 0.1);
}

TEST(RngTest, ParetoRespectsScaleFloor) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.pareto(1.5, 2.0), 2.0);
}

// ---------------------------------------------------------- RunningStats

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeEqualsCombined) {
  RunningStats a, b, all;
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 1.5);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmptySides) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  RunningStats a_copy = a;
  a.merge(b);  // merging empty changes nothing
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a_copy);  // merging into empty copies
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

// -------------------------------------------------------------- SampleSet

TEST(SampleSetTest, ExactQuantiles) {
  SampleSet s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(SampleSetTest, QuantileInterpolates) {
  SampleSet s;
  s.add(0.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.75), 7.5);
}

TEST(SampleSetTest, EmptyReturnsZero) {
  SampleSet s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
}

// -------------------------------------------------------------- TimeSeries

TEST(TimeSeriesTest, MeanInWindow) {
  TimeSeries ts;
  ts.add(0, 1.0);
  ts.add(kSecond, 2.0);
  ts.add(2 * kSecond, 3.0);
  ts.add(3 * kSecond, 100.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(0, 2 * kSecond), 2.0);
  EXPECT_DOUBLE_EQ(ts.mean_in(3 * kSecond, 3 * kSecond), 100.0);
}

TEST(TimeSeriesTest, OscillationMeasuresWorstDeviation) {
  TimeSeries ts;
  ts.add(0, 10.0);
  ts.add(1, 12.0);
  ts.add(2, 8.0);
  EXPECT_DOUBLE_EQ(ts.oscillation_in(0, 2), 2.0);
}

TEST(TimeSeriesTest, ValueAtReturnsLastAtOrBefore) {
  TimeSeries ts;
  ts.add(10, 1.0);
  ts.add(20, 2.0);
  EXPECT_DOUBLE_EQ(ts.value_at(5, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(ts.value_at(10), 1.0);
  EXPECT_DOUBLE_EQ(ts.value_at(15), 1.0);
  EXPECT_DOUBLE_EQ(ts.value_at(25), 2.0);
}

// ------------------------------------------------------------- Jain index

TEST(JainIndexTest, PerfectFairnessIsOne) {
  const double xs[] = {5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(jain_fairness_index(xs), 1.0);
}

TEST(JainIndexTest, SingleHogApproachesOneOverN) {
  const double xs[] = {10.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_fairness_index(xs), 0.25);
}

TEST(JainIndexTest, EmptyAndZeroAreVacuouslyFair) {
  EXPECT_DOUBLE_EQ(jain_fairness_index({}), 1.0);
  const double xs[] = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_fairness_index(xs), 1.0);
}

// -------------------------------------------------------------- Histogram

TEST(HistogramTest, BinsAndOverflow) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);  // underflow
  h.add(0.0);   // bin 0
  h.add(1.9);   // bin 0
  h.add(5.0);   // bin 2
  h.add(9.99);  // bin 4
  h.add(10.0);  // overflow (hi is exclusive)
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_DOUBLE_EQ(h.bin_lo(2), 4.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(2), 6.0);
}

// ------------------------------------------------------- InplaceFunction

TEST(InplaceFunctionTest, EmptyAndNullptrAreFalsy) {
  InplaceFunction<int(), 32> fn;
  EXPECT_FALSE(fn);
  fn = [] { return 42; };
  EXPECT_TRUE(fn);
  EXPECT_EQ(fn(), 42);
  fn = nullptr;
  EXPECT_FALSE(fn);
}

TEST(InplaceFunctionTest, CarriesMoveOnlyCaptures) {
  auto box = std::make_unique<int>(7);
  InplaceFunction<int(), 32> fn = [b = std::move(box)] { return *b; };
  EXPECT_EQ(fn(), 7);
  EXPECT_EQ(fn(), 7);  // capture survives repeated invocation
}

TEST(InplaceFunctionTest, MoveTransfersAndEmptiesSource) {
  InplaceFunction<int(int), 32> a = [](int x) { return x + 1; };
  InplaceFunction<int(int), 32> b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): emptiness is specified
  ASSERT_TRUE(b);
  EXPECT_EQ(b(4), 5);
}

TEST(InplaceFunctionTest, RelocatesInsideGrowingVector) {
  // The scheduler's slot pool relocates callbacks on vector growth; the
  // capture (including destructors) must survive the moves.
  auto live = std::make_shared<int>(0);
  std::vector<InplaceFunction<int(), 48>> pool;
  for (int i = 0; i < 64; ++i) {
    pool.emplace_back([live, i] {
      ++*live;
      return i;
    });
  }
  for (int i = 0; i < 64; ++i) EXPECT_EQ(pool[static_cast<std::size_t>(i)](), i);
  EXPECT_EQ(*live, 64);
  pool.clear();
  EXPECT_EQ(live.use_count(), 1);  // every relocated capture was destroyed
}

TEST(InplaceFunctionTest, CapacityIsCompileTimeConstant) {
  static_assert(InplaceFunction<void(), 64>::capacity() == 64);
  SUCCEED();
}

// ----------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, AlignedOutputContainsCells) {
  TablePrinter t({"a", "long_header"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TablePrinterTest, CsvEscapesSpecialCharacters) {
  TablePrinter t({"x"});
  t.add_row({"a,b"});
  t.add_row({"he said \"hi\""});
  std::ostringstream os;
  t.print_csv(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"a,b\""), std::string::npos);
  EXPECT_NE(s.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(TablePrinterTest, FmtPrecision) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(1.0, 0), "1");
  EXPECT_EQ(TablePrinter::fmt_int(42), "42");
}

// -------------------------------------------------------------- RingBuffer

TEST(RingBufferTest, FifoOrderSurvivesGrowthWhileHeadIsWrapped) {
  RingBuffer<int> ring;
  int next_in = 0;
  int next_out = 0;
  for (int i = 0; i < 8; ++i) ring.push_back(next_in++);
  ASSERT_EQ(ring.capacity(), 8u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ring.pop_front(), next_out++);
  // Refill past the end of the slot array: the live range now wraps.
  for (int i = 0; i < 5; ++i) ring.push_back(next_in++);
  ASSERT_EQ(ring.size(), ring.capacity());
  // Growing here must unroll the wrapped range in order.
  for (int i = 0; i < 20; ++i) ring.push_back(next_in++);
  EXPECT_EQ(ring.capacity(), 32u);
  EXPECT_EQ(ring.front(), next_out);
  EXPECT_EQ(ring.back(), next_in - 1);
  for (std::size_t i = 0; i < ring.size(); ++i) EXPECT_EQ(ring.at(i), next_out + static_cast<int>(i));
  while (!ring.empty()) EXPECT_EQ(ring.pop_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(RingBufferTest, ReserveRoundsUpToPowerOfTwoAndNeverShrinks) {
  RingBuffer<int> ring;
  ring.reserve(100);
  EXPECT_EQ(ring.capacity(), 128u);
  ring.reserve(10);
  EXPECT_EQ(ring.capacity(), 128u);
  ring.reserve(129);
  EXPECT_EQ(ring.capacity(), 256u);
  // Reserving keeps the contents and their order.
  RingBuffer<int> filled;
  for (int i = 0; i < 6; ++i) filled.push_back(int{i});
  filled.pop_front();
  filled.reserve(1000);
  EXPECT_EQ(filled.capacity(), 1024u);
  for (int i = 1; i < 6; ++i) EXPECT_EQ(filled.pop_front(), i);
}

TEST(RingBufferTest, CapacityStaysAtHighWaterMarkAfterDrain) {
  RingBuffer<int> ring;
  EXPECT_EQ(ring.capacity(), 0u);  // nothing reserved up front
  for (int i = 0; i < 40; ++i) ring.push_back(int{i});
  EXPECT_EQ(ring.capacity(), 64u);
  while (!ring.empty()) ring.pop_front();
  EXPECT_EQ(ring.capacity(), 64u);
  // Steady traffic below the mark cycles through the same slots.
  for (int i = 0; i < 1000; ++i) {
    ring.push_back(int{i});
    ring.push_back(int{i});
    ring.pop_front();
    ring.pop_front();
  }
  EXPECT_EQ(ring.capacity(), 64u);
  ring.clear();
  EXPECT_EQ(ring.capacity(), 64u);
}

TEST(RingBufferTest, ClearReleasesBoxedAcks) {
  // AckInfo blocks recycle through a LIFO freelist, so the block a cleared
  // slot released is the very next one handed out. A slot that kept its
  // packet until overwritten would still own it, and the next ack would get
  // a different block.
  RingBuffer<Packet> ring;
  Packet pkt;
  pkt.ack = AckInfo{};
  const AckInfo* held = &*pkt.ack;
  ring.push_back(std::move(pkt));
  ring.clear();
  EXPECT_TRUE(ring.empty());
  Packet next;
  next.ack = AckInfo{};
  EXPECT_EQ(&*next.ack, held);
}

}  // namespace
}  // namespace pels
