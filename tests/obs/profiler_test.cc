// Unit tests for the hot-path profiler: log-histogram edge cases (the
// accuracy and topology percentiles depend on them) and counter/rate
// mechanics.
#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace snapq::obs {
namespace {

TEST(LogHistogramTest, EmptyHistogramReportsZeros) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min_seen(), 0.0);
  EXPECT_EQ(h.max_seen(), 0.0);
  for (double pct : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(h.Percentile(pct), 0.0) << "pct=" << pct;
  }
}

TEST(LogHistogramTest, SingleSampleIsExactAtEveryPercentile) {
  LogHistogram h;
  h.Observe(123.4);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min_seen(), 123.4);
  EXPECT_EQ(h.max_seen(), 123.4);
  // Interpolation is clamped to [min, max], so one sample is exact even
  // though its bucket spans ~19%.
  for (double pct : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(h.Percentile(pct), 123.4) << "pct=" << pct;
  }
}

TEST(LogHistogramTest, PercentilesAreWithinOneBucketOfExact) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min_seen(), 1.0);
  EXPECT_EQ(h.max_seen(), 1000.0);
  // Bucket resolution is 2^(1/4) ~ 1.19; allow that relative error both
  // ways around the exact order statistics.
  const struct {
    double pct, exact;
  } cases[] = {{50.0, 500.0}, {95.0, 950.0}, {99.0, 990.0}};
  for (const auto& c : cases) {
    const double got = h.Percentile(c.pct);
    EXPECT_GE(got, c.exact / 1.19) << "pct=" << c.pct;
    EXPECT_LE(got, c.exact * 1.19) << "pct=" << c.pct;
  }
  EXPECT_EQ(h.Percentile(100.0), 1000.0);
}

TEST(LogHistogramTest, SaturatesBeyondTopBucketWithoutCorruption) {
  LogHistogram h;
  h.Observe(1e30);  // way past 2^40
  h.Observe(3e30);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max_seen(), 3e30);
  EXPECT_EQ(h.min_seen(), 1e30);
  // Both land in the top bucket; percentiles stay inside [min, max].
  const double p50 = h.Percentile(50);
  EXPECT_GE(p50, 1e30);
  EXPECT_LE(p50, 3e30);
  uint64_t total = 0;
  for (uint64_t b : h.buckets()) total += b;
  EXPECT_EQ(total, 2u);
}

TEST(LogHistogramTest, UnderflowZeroNegativeAndNanLandInBucketZero) {
  LogHistogram h;
  h.Observe(0.0);
  h.Observe(-5.0);                                 // clamped to 0
  h.Observe(std::numeric_limits<double>::quiet_NaN());  // treated as 0
  h.Observe(1e-9);                                 // below 2^-10
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.buckets()[0], 4u);
  EXPECT_EQ(h.min_seen(), 0.0);
  // All mass is in the underflow bucket; the interpolated percentile is
  // clamped to the observed range [0, 1e-9].
  EXPECT_GE(h.Percentile(50), 0.0);
  EXPECT_LE(h.Percentile(50), 1e-9);
}

TEST(LogHistogramTest, MergeEqualsConcatenation) {
  // Bucket-exact claim: merging two histograms must give identical bucket
  // counts, min/max, and therefore identical percentiles, as observing
  // the concatenated samples in one histogram.
  std::vector<double> a, b;
  for (int i = 0; i < 200; ++i) {
    a.push_back(0.5 + 13.7 * i);
    b.push_back(100000.0 / (1 + i));
  }
  LogHistogram ha, hb, merged, concat;
  for (double v : a) {
    ha.Observe(v);
    concat.Observe(v);
  }
  for (double v : b) {
    hb.Observe(v);
    concat.Observe(v);
  }
  merged.MergeFrom(ha);
  merged.MergeFrom(hb);
  EXPECT_EQ(merged.count(), concat.count());
  EXPECT_EQ(merged.min_seen(), concat.min_seen());
  EXPECT_EQ(merged.max_seen(), concat.max_seen());
  EXPECT_DOUBLE_EQ(merged.sum(), concat.sum());
  EXPECT_EQ(merged.buckets(), concat.buckets());
  for (double pct : {1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(merged.Percentile(pct), concat.Percentile(pct))
        << "pct=" << pct;
  }
}

TEST(LogHistogramTest, MergeFromEmptyKeepsMinMax) {
  LogHistogram h, empty;
  h.Observe(7.0);
  h.MergeFrom(empty);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min_seen(), 7.0);
  EXPECT_EQ(h.max_seen(), 7.0);
}

TEST(LogHistogramTest, BucketBoundsBracketTheirValues) {
  for (double v : {0.01, 0.5, 1.0, 3.0, 1024.0, 123456.7}) {
    const int index = LogHistogram::BucketIndex(v);
    ASSERT_GE(index, 0);
    ASSERT_LT(index, LogHistogram::kNumBuckets);
    EXPECT_LE(LogHistogram::BucketLowerBound(index), v) << "v=" << v;
    EXPECT_GT(LogHistogram::BucketUpperBound(index), v) << "v=" << v;
  }
}

TEST(ProfilerTest, CountersAccumulateAndReset) {
  Profiler profiler;
  profiler.Count(HotOp::kModelFits, 3);
  profiler.Count(HotOp::kModelFits);
  EXPECT_EQ(profiler.count(HotOp::kModelFits), 4u);
  EXPECT_EQ(profiler.count(HotOp::kMessagesSent), 0u);
  profiler.Reset();
  EXPECT_EQ(profiler.count(HotOp::kModelFits), 0u);
}

TEST(ProfilerTest, ProfCountRespectsEnableDisable) {
  Profiler::Disable();
  Profiler::Global().Reset();
  ProfCount(HotOp::kMessagesSent);
  EXPECT_EQ(Profiler::Global().count(HotOp::kMessagesSent), 0u);
  Profiler::Enable();
  ProfCount(HotOp::kMessagesSent, 5);
  EXPECT_EQ(Profiler::Global().count(HotOp::kMessagesSent), 5u);
  Profiler::Disable();
}

TEST(ProfilerTest, HotOpNamesAreStable) {
  // These strings are BENCH.json keys — changing one is a schema break.
  EXPECT_STREQ(HotOpName(HotOp::kMessagesSent), "messages_sent");
  EXPECT_STREQ(HotOpName(HotOp::kMessagesDelivered), "messages_delivered");
  EXPECT_STREQ(HotOpName(HotOp::kMessagesSnooped), "messages_snooped");
  EXPECT_STREQ(HotOpName(HotOp::kCacheOps), "cache_ops");
  EXPECT_STREQ(HotOpName(HotOp::kModelFits), "model_fits");
  EXPECT_STREQ(HotOpName(HotOp::kElectionRounds), "election_rounds");
  EXPECT_STREQ(HotOpName(HotOp::kMaintenanceRounds), "maintenance_rounds");
  EXPECT_STREQ(HotOpName(HotOp::kQueriesExecuted), "queries_executed");
}

TEST(ProfilerTest, ToTableMentionsEveryOpWithItsRate) {
  Profiler profiler;
  profiler.Count(HotOp::kCacheOps, 2);
  const std::string table = profiler.ToTable();
  for (size_t i = 0; i < kNumHotOps; ++i) {
    EXPECT_NE(table.find(HotOpName(static_cast<HotOp>(i))),
              std::string::npos);
  }
  EXPECT_NE(table.find("per second"), std::string::npos);
}

}  // namespace
}  // namespace snapq::obs
