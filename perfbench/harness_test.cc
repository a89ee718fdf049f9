// Tests of the benchmark's own helpers: the percentile and sample-count
// rule, span self time, /proc/self/status parsing, ok_pct
// accounting and seed -> input determinism.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

snapq::SampleSet Samples(const std::vector<double>& values) {
  snapq::SampleSet set;
  for (double v : values) set.Add(v);
  return set;
}

// The metrics' percentiles are snapq::SampleSet's; these pin the rule the
// benchmark's p50/p90 rest on.
TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  const snapq::SampleSet v = Samples({10, 1, 9, 2, 8, 3, 7, 4, 6, 5});
  EXPECT_DOUBLE_EQ(v.Percentile(50), 5.5);
  EXPECT_DOUBLE_EQ(v.Percentile(90), 9.1);
  EXPECT_DOUBLE_EQ(v.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(v.Percentile(100), 10.0);
}

TEST(PercentileTest, HandlesTinyInputs) {
  EXPECT_DOUBLE_EQ(Samples({}).Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(Samples({4.0}).Percentile(90), 4.0);
  EXPECT_DOUBLE_EQ(Samples({1.0, 3.0}).Percentile(50), 2.0);
}

TEST(SampleCountRuleTest, P90NeedsOneHundredSamples) {
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(99, 90), 9u);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(5, 100), 0u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
  // The workloads time at least this many units, so p90 is supported.
  EXPECT_GE(SamplesBeyond(kCountedUnits, 90), 10u);
}

Span MakeSpan(int64_t start, int64_t end, int parent) {
  Span s;
  s.name = "s";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTimeTest, SubtractsNestedChildrenOneLevelAtATime) {
  const std::vector<Span> spans{MakeSpan(0, 100, -1), MakeSpan(10, 30, 0),
                                MakeSpan(15, 20, 1)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 80);
  EXPECT_EQ(self[1], 15);
  EXPECT_EQ(self[2], 5);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  const std::vector<Span> spans{MakeSpan(0, 100, -1), MakeSpan(10, 50, 0),
                                MakeSpan(40, 70, 0), MakeSpan(45, 60, 0)};
  EXPECT_EQ(SelfTimesNs(spans)[0], 40);  // children cover [10, 70)
}

TEST(SelfTimeTest, ChildrenOutsideTheParentAreClipped) {
  const std::vector<Span> spans{MakeSpan(0, 100, -1), MakeSpan(90, 120, 0),
                                MakeSpan(-20, 5, 0)};
  EXPECT_EQ(SelfTimesNs(spans)[0], 85);
}

TEST(SpanRecorderTest, NestsByScopeAndInheritsTheUnit) {
  SpanRecorder rec;
  {
    ScopedSpan unit(&rec, "unit", 7);
    { ScopedSpan a(&rec, "layer.a"); }
    {
      ScopedSpan b(&rec, "layer.b");
      ScopedSpan c(&rec, "layer.c");
    }
  }
  { ScopedSpan none(nullptr, "ignored"); }
  const std::vector<Span>& s = rec.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 0);
  EXPECT_EQ(s[3].parent, 2);
  for (const Span& span : s) {
    EXPECT_EQ(span.unit, 7);
    EXPECT_LE(span.start_ns, span.end_ns);
  }
  const auto summary = SummarizeSpans(s);
  EXPECT_EQ(summary.at("layer.a").durations_ms.count(), 1u);
  EXPECT_DOUBLE_EQ(summary.at("unit").total_ms,
                   summary.at("unit").durations_ms.Percentile(50));
}

TEST(ProcStatusTest, ParsesKilobyteFields) {
  const std::string status =
      "Name:\tsnapq_perfbench\n"
      "VmPeak:\t  210000 kB\n"
      "VmHWM:\t  204928 kB\n"
      "VmRSS:\t   12345 kB\n"
      "Threads:\t1\n";
  EXPECT_EQ(ParseStatusKb(status, "VmHWM"), 204928);
  EXPECT_EQ(ParseStatusKb(status, "VmRSS"), 12345);
  EXPECT_EQ(ParseStatusKb(status, "VmSwap"), std::nullopt);
  EXPECT_EQ(ParseStatusKb(status, "Threads"), std::nullopt);  // no kB unit
  EXPECT_EQ(ParseStatusKb(status, "Vm"), std::nullopt);       // prefix only
  EXPECT_EQ(ParseStatusKb("VmHWM:\tkB\n", "VmHWM"), std::nullopt);
  EXPECT_EQ(ParseStatusKb("VmHWM: 7 kB", "VmHWM"), 7);  // no final newline
}

TEST(ProcStatusTest, ReadsThisProcess) {
  // RSS first: the high-water mark read afterwards can only be larger.
  const std::optional<int64_t> rss = ReadStatusKb("VmRSS");
  const std::optional<int64_t> hwm = ReadStatusKb("VmHWM");
  ASSERT_TRUE(hwm.has_value());
  ASSERT_TRUE(rss.has_value());
  EXPECT_GT(*rss, 0);
  EXPECT_GE(*hwm, *rss);
}

TEST(OkAccountingTest, CountsFailuresAgainstAttempts) {
  OkCounter ok;
  EXPECT_DOUBLE_EQ(ok.ok_pct(), 0.0);
  EXPECT_NE(ResultJson({}, ok).find("\"correct\": false"), std::string::npos);
  ok.Record(true);
  ok.Record(true);
  ok.Record(true);
  EXPECT_DOUBLE_EQ(ok.ok_pct(), 100.0);
  EXPECT_NE(ResultJson({}, ok).find("\"correct\": true"), std::string::npos);
  ok.Record(false);
  EXPECT_EQ(ok.attempted(), 4u);
  EXPECT_EQ(ok.failed(), 1u);
  EXPECT_DOUBLE_EQ(ok.ok_pct(), 75.0);
  const std::string json = ResultJson({{"ok_pct", ok.ok_pct(), "%", 4, ""}}, ok);
  EXPECT_EQ(json,
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, "
            "\"metrics\": {\"ok_pct\": {\"value\": 75, \"unit\": \"%\"}}}");
}

TEST(SeedDeterminismTest, SameSeedSameInputs) {
  EXPECT_EQ(DeriveSeed(5, "a"), DeriveSeed(5, "a"));
  EXPECT_NE(DeriveSeed(5, "a"), DeriveSeed(5, "b"));
  EXPECT_NE(DeriveSeed(5, "a"), DeriveSeed(6, "a"));

  EXPECT_EQ(DenseTrialSeeds(3), DenseTrialSeeds(3));
  EXPECT_NE(DenseTrialSeeds(3), DenseTrialSeeds(4));
  // An odd cycle, so traced (even) and untraced (odd) units of a traced run
  // both walk every trial seed.
  EXPECT_EQ(DenseTrialSeeds(3).size() % 2, 1u);

  EXPECT_EQ(QueryMix(3, 10), QueryMix(3, 10));
  EXPECT_NE(QueryMix(3, 10), QueryMix(4, 10));
  EXPECT_NE(QueryMix(3, 10), QueryMix(3, 11));
}

TEST(SeedDeterminismTest, QueryMixPairsSnapshotWithRegular) {
  const std::vector<std::string> mix = QueryMix(1, 0);
  ASSERT_EQ(mix.size() % 2, 0u);
  for (size_t i = 0; i < mix.size(); i += 2) {
    EXPECT_EQ(mix[i], mix[i + 1] + " USE SNAPSHOT");
  }
}

TEST(HostSpeedTest, StartsWithAFullWindowOfReadings) {
  HostSpeed speed;
  EXPECT_EQ(speed.readings().count(), HostSpeed::kWindow);
  EXPECT_GT(speed.CurrentNs(), 0.0);
  EXPECT_GE(speed.CurrentNs(), speed.readings().Min());
  EXPECT_LE(speed.CurrentNs(), speed.readings().Max());
}

TEST(HostSpeedTest, NormalisesByTheMedianOfTheLastWindow) {
  HostSpeed speed;
  for (size_t i = 1; i <= HostSpeed::kWindow; ++i) {
    speed.Record(1e5 * static_cast<double>(i));
  }
  // Only the last kWindow readings count: 1..9 x 100 us, median 500 us.
  EXPECT_DOUBLE_EQ(speed.CurrentNs(), 1e5 * (HostSpeed::kWindow + 1) / 2);
  // A host half as fast doubles the probe and halves a normalised time.
  for (size_t i = 0; i < HostSpeed::kWindow; ++i) {
    speed.Record(2.0 * HostSpeed::kReferenceNs);
  }
  EXPECT_DOUBLE_EQ(speed.CurrentNs(), 2.0 * HostSpeed::kReferenceNs);
  EXPECT_DOUBLE_EQ(speed.Normalize(80.0), 40.0);
  EXPECT_EQ(speed.readings().count(), 3 * HostSpeed::kWindow);
}

TEST(DigestTest, IsOrderSensitiveAndRepeatable) {
  Digest a, b, c;
  a.Add(uint64_t{1});
  a.Add(2.5);
  b.Add(uint64_t{1});
  b.Add(2.5);
  c.Add(2.5);
  c.Add(uint64_t{1});
  EXPECT_EQ(a.Hex(), b.Hex());
  EXPECT_NE(a.Hex(), c.Hex());
  EXPECT_EQ(a.Hex().size(), 16u);
}

}  // namespace
}  // namespace perfbench
