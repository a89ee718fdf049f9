#include "obs/metric_registry.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "obs/json.h"

namespace snapq::obs {
namespace {

TEST(ObsRegistryTest, CounterSemantics) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("net.sent");
  EXPECT_EQ(c->value(), 0u);
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(c->value(), 5u);
  // Same name returns the same instrument.
  EXPECT_EQ(reg.GetCounter("net.sent"), c);
  c->Reset();
  EXPECT_EQ(c->value(), 0u);
}

TEST(ObsRegistryTest, GaugeSemantics) {
  MetricRegistry reg;
  Gauge* g = reg.GetGauge("snapshot.size");
  g->Set(12.0);
  EXPECT_DOUBLE_EQ(g->value(), 12.0);
  g->Add(-2.0);
  EXPECT_DOUBLE_EQ(g->value(), 10.0);
  g->SetMax(3.0);  // lower value does not stick
  EXPECT_DOUBLE_EQ(g->value(), 10.0);
  g->SetMax(15.0);
  EXPECT_DOUBLE_EQ(g->value(), 15.0);
}

TEST(ObsRegistryTest, HistogramBucketsAndStats) {
  MetricRegistry reg;
  LogHistogram* h = reg.GetHistogram("lat");
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(50.0);
  h->Observe(500.0);
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->sum(), 555.5);
  EXPECT_DOUBLE_EQ(h->max_seen(), 500.0);
  // Each value lands in its own log bucket.
  for (const double v : {0.5, 5.0, 50.0, 500.0}) {
    EXPECT_EQ(h->buckets()[static_cast<size_t>(LogHistogram::BucketIndex(v))],
              1u)
        << "v=" << v;
  }
  // The same name returns the same instrument.
  EXPECT_EQ(reg.GetHistogram("lat"), h);
  EXPECT_EQ(reg.num_instruments(), 1u);
}

TEST(ObsRegistryTest, PerNodeLabeledInstruments) {
  MetricRegistry reg;
  reg.GetCounter("election.msgs", 3)->Inc(2);
  reg.GetCounter("election.msgs", 17)->Inc(5);
  reg.GetGauge("election.sent", 17)->Set(6.0);
  EXPECT_EQ(LabeledName("election.msgs", 17), "election.msgs{node=17}");
  EXPECT_EQ(reg.GetCounter("election.msgs", 3)->value(), 2u);
  EXPECT_EQ(reg.GetCounter("election.msgs", 17)->value(), 5u);
  EXPECT_DOUBLE_EQ(reg.GetGauge("election.sent", 17)->value(), 6.0);
  // Labels are separate instruments, not the unlabeled name.
  EXPECT_EQ(reg.num_instruments(), 3u);
  const std::string csv = reg.ToCsv();
  EXPECT_NE(csv.find("counter,election.msgs{node=3},2\n"), std::string::npos);
  EXPECT_NE(csv.find("counter,election.msgs{node=17},5\n"),
            std::string::npos);
  EXPECT_NE(csv.find("gauge,election.sent{node=17},6\n"), std::string::npos);
}

TEST(ObsRegistryTest, MergeAddsCountersAndMaxesGauges) {
  MetricRegistry a;
  MetricRegistry b;
  a.GetCounter("runs")->Inc(2);
  b.GetCounter("runs")->Inc(3);
  a.GetGauge("election.messages_sent", 1)->Set(4.0);
  b.GetGauge("election.messages_sent", 1)->Set(6.0);
  b.GetGauge("election.messages_sent", 2)->Set(5.0);
  a.GetHistogram("h")->Observe(0.5);
  b.GetHistogram("h")->Observe(1.5);

  a.MergeFrom(b);
  EXPECT_EQ(a.GetCounter("runs")->value(), 5u);
  // Gauges keep the high-watermark: merging ten elections whose per-node
  // cost never exceeded six must still read <= 6, never the sum.
  EXPECT_DOUBLE_EQ(a.GetGauge("election.messages_sent", 1)->value(), 6.0);
  EXPECT_DOUBLE_EQ(a.GetGauge("election.messages_sent", 2)->value(), 5.0);
  LogHistogram* h = a.GetHistogram("h");
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->buckets()[static_cast<size_t>(LogHistogram::BucketIndex(0.5))],
            1u);
  EXPECT_EQ(h->buckets()[static_cast<size_t>(LogHistogram::BucketIndex(1.5))],
            1u);
}

TEST(ObsRegistryTest, MergeIsBucketExact) {
  // Merged per-trial histograms hold exactly the buckets of one histogram
  // that saw every sample, so percentiles survive aggregation.
  MetricRegistry a;
  MetricRegistry b;
  LogHistogram all;
  for (int i = 0; i < 100; ++i) {
    const double x = 0.37 * i * i;
    const double y = 1000.0 / (1 + i);
    a.GetHistogram("h")->Observe(x);
    b.GetHistogram("h")->Observe(y);
    all.Observe(x);
    all.Observe(y);
  }
  b.GetHistogram("only_b")->Observe(2.0);
  MetricRegistry merged;
  merged.MergeFrom(a);
  merged.MergeFrom(b);
  const LogHistogram* h = merged.GetHistogram("h");
  EXPECT_EQ(h->count(), all.count());
  EXPECT_EQ(h->buckets(), all.buckets());
  EXPECT_EQ(h->max_seen(), all.max_seen());
  EXPECT_DOUBLE_EQ(h->sum(), all.sum());
  EXPECT_EQ(merged.GetHistogram("only_b")->count(), 1u);
  // The same merges in the same order export the same bytes.
  MetricRegistry again;
  again.MergeFrom(a);
  again.MergeFrom(b);
  EXPECT_EQ(again.ToJson(), merged.ToJson());
  EXPECT_EQ(again.ToCsv(), merged.ToCsv());
}

TEST(ObsRegistryTest, HistogramExportListsNonEmptyLogBuckets) {
  MetricRegistry reg;
  LogHistogram* h = reg.GetHistogram("lat");
  h->Observe(0.0);  // the underflow bucket [0, 2^-10)
  h->Observe(3.0);  // [2^(6/4), 2^(7/4)) = [2.83, 3.36)
  h->Observe(3.0);
  const std::string json = reg.ToJson();
  EXPECT_TRUE(ValidateJson(json)) << json;
  EXPECT_NE(json.find("\"lat\":{\"count\":3,\"sum\":6,\"max\":3,"
                      "\"buckets\":[[0,0.0009765625,1],"
                      "[2.82842712475,3.36358566101,2]]}"),
            std::string::npos)
      << json;

  const std::string csv = reg.ToCsv();
  EXPECT_NE(csv.find("histogram_count,lat,3\n"
                     "histogram_sum,lat,6\n"
                     "histogram_max,lat,3\n"
                     "histogram_bucket,lat{ge=0;lt=0.0009765625},1\n"
                     "histogram_bucket,lat{ge=2.82842712475;lt=3.36358566101},"
                     "2\n"),
            std::string::npos)
      << csv;
}

TEST(ObsRegistryTest, ToJsonParsesBackAndToCsvShape) {
  MetricRegistry reg;
  reg.GetCounter("net.sent")->Inc(42);
  reg.GetGauge("size", 7)->Set(3.5);
  reg.GetHistogram("lat")->Observe(2.0);
  const std::string json = reg.ToJson();
  // Spot-check that the flat sections are valid flat JSON objects.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"net.sent\":42"), std::string::npos);
  EXPECT_NE(json.find("\"size{node=7}\":3.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);

  const std::string csv = reg.ToCsv();
  EXPECT_NE(csv.find("counter,net.sent,42"), std::string::npos);
  EXPECT_NE(csv.find("gauge,size{node=7},3.5"), std::string::npos);
}

TEST(ObsRegistryTest, ResetClearsValuesKeepsInstruments) {
  MetricRegistry reg;
  Counter* c = reg.GetCounter("x");
  c->Inc(9);
  const size_t instruments = reg.num_instruments();
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(reg.num_instruments(), instruments);
  EXPECT_EQ(reg.GetCounter("x"), c);
}

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

}  // namespace
}  // namespace snapq::obs
