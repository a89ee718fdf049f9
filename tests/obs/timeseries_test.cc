// The fixed-memory telemetry engine: ring wraparound must fold old
// samples into history (never drop them — the retained-count invariant),
// compaction must double the bin stride, trends (ewma/envelope/slope)
// must survive downsampling, counter rates must clamp on reset, and the
// timeline JSON the whole thing serializes to must stay well-formed.
#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "obs/json.h"
#include "obs/metric_registry.h"
#include "obs/slo.h"
#include "obs/timeline.h"

namespace snapq::obs {
namespace {

uint64_t RetainedCount(const TimeSeries& s) {
  uint64_t count = 0;
  for (size_t i = 0; i < s.num_bins(); ++i) count += s.bin(i).count;
  return count;
}

TEST(TimeSeriesTest, AggregatesTrackPushedValues) {
  TimeSeries s;
  s.Push(0, 2.0);
  s.Push(1, 6.0);
  s.Push(2, 4.0);
  EXPECT_EQ(s.num_samples(), 3u);
  EXPECT_DOUBLE_EQ(s.last(), 4.0);
  EXPECT_EQ(s.last_time(), 2);
  EXPECT_DOUBLE_EQ(s.min_seen(), 2.0);
  EXPECT_DOUBLE_EQ(s.max_seen(), 6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  // EWMA seeded at the first value, alpha 0.1.
  EXPECT_NEAR(s.ewma(), 2.0 + 0.1 * 4.0 + 0.1 * (4.0 - 2.4), 1e-12);
}

// Samples until the history ring has compacted `compactions` times: the
// k-th compaction comes on the (history capacity * 2^(k-1) + 1)-th raw
// eviction.
Time SamplesForCompactions(int compactions) {
  return static_cast<Time>(kSeriesRawCapacity +
                           (kSeriesHistoryCapacity << (compactions - 1)) + 1);
}

TEST(TimeSeriesTest, WraparoundFoldsIntoHistoryKeepingEverySample) {
  TimeSeries s;
  const Time n = SamplesForCompactions(2);
  for (Time t = 0; t < n; ++t) {
    s.Push(t, static_cast<double>(t));
    // The count invariant holds after EVERY push: bins merge, never drop.
    ASSERT_EQ(RetainedCount(s), s.num_samples()) << "at t=" << t;
  }
  EXPECT_EQ(s.num_samples(), static_cast<uint64_t>(n));
  EXPECT_EQ(s.history_stride(), 4u);
  // Bins are in time order, oldest first, and span the full range.
  EXPECT_EQ(s.retained_since(), 0);
  Time prev_end = -1;
  for (size_t i = 0; i < s.num_bins(); ++i) {
    EXPECT_GT(s.bin(i).t_first, prev_end);
    EXPECT_GE(s.bin(i).t_last, s.bin(i).t_first);
    prev_end = s.bin(i).t_last;
  }
  EXPECT_EQ(prev_end, n - 1);
}

TEST(TimeSeriesTest, CompactionDoublesTheStride) {
  TimeSeries s;
  EXPECT_EQ(s.history_stride(), 1u);
  const Time n = SamplesForCompactions(3);
  size_t compactions = 0;
  Time last_compaction = -1;
  for (Time t = 0; t < n; ++t) {
    const size_t stride = s.history_stride();
    s.Push(t, 1.0);
    if (s.history_stride() != stride) {
      // Stride only ever doubles.
      EXPECT_EQ(s.history_stride(), 2 * stride) << "at t=" << t;
      ++compactions;
      last_compaction = t;
    }
    ASSERT_EQ(RetainedCount(s), s.num_samples()) << "at t=" << t;
    ASSERT_LE(s.num_bins(), kSeriesRawCapacity + kSeriesHistoryCapacity);
  }
  // Exactly on schedule: the last push made the third compaction.
  EXPECT_EQ(compactions, 3u);
  EXPECT_EQ(last_compaction, n - 1);
  EXPECT_EQ(s.history_stride(), 8u);
}

TEST(TimeSeriesTest, CadenceNotDividingCapacityKeepsInvariant) {
  // A cadence of 3 ticks and a sine that never repeats a bin boundary:
  // nothing lines up, the invariant must hold anyway through three
  // compactions.
  TimeSeries s;
  Time t = 0;
  for (int i = 0; i < 1000; ++i) {
    s.Push(t, std::sin(0.1 * static_cast<double>(i)));
    t += 3;
    ASSERT_EQ(RetainedCount(s), s.num_samples()) << "at i=" << i;
  }
  EXPECT_EQ(s.num_samples(), 1000u);
  EXPECT_EQ(s.history_stride(), 8u);
  EXPECT_LE(s.num_bins(), kSeriesRawCapacity + kSeriesHistoryCapacity);
}

TEST(TimeSeriesTest, SlopeRecoversALinearTrend) {
  TimeSeries s;
  for (Time t = 0; t < 500; ++t) {
    s.Push(t, 10.0 + 2.5 * static_cast<double>(t));
  }
  // Downsampled bins average a linear series symmetrically, so the
  // least-squares slope comes back almost exactly.
  EXPECT_NEAR(s.Slope(), 2.5, 0.01);

  TimeSeries flat;
  for (Time t = 0; t < 500; ++t) flat.Push(t, 7.0);
  EXPECT_NEAR(flat.Slope(), 0.0, 1e-9);
}

TEST(TelemetryRecorderTest, SamplesGaugesCountersAndProbes) {
  MetricRegistry registry;
  Gauge* gauge = registry.GetGauge("g");
  Counter* counter = registry.GetCounter("c");

  TelemetryConfig config;
  config.sample_interval = 10;
  TelemetryRecorder rec(config, &registry);
  rec.TrackGauge("g");
  rec.TrackCounterRate("c");

  gauge->Set(0.5);
  counter->Inc(7);
  rec.SampleNow(10);
  counter->Inc(3);
  rec.SampleNow(20);

  EXPECT_EQ(rec.num_samples(), 2u);
  EXPECT_DOUBLE_EQ(rec.series("g")->last(), 0.5);
  // Counter rates are per-interval deltas under "<name>.rate".
  EXPECT_EQ(rec.series("c"), nullptr);
  ASSERT_NE(rec.series("c.rate"), nullptr);
  EXPECT_DOUBLE_EQ(rec.series("c.rate")->last(), 3.0);
  EXPECT_DOUBLE_EQ(rec.series("c.rate")->min_seen(), 3.0);
  EXPECT_DOUBLE_EQ(rec.series("c.rate")->max_seen(), 7.0);
}

TEST(TelemetryRecorderTest, CounterResetClampsToZeroRate) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("c");
  TelemetryRecorder rec({}, &registry);
  rec.TrackCounterRate("c");

  counter->Inc(100);
  rec.SampleNow(10);
  counter->Reset();  // warm restart
  counter->Inc(5);
  rec.SampleNow(20);
  // 5 < 100: the delta would underflow; it must clamp to 0, not 2^64-95.
  EXPECT_DOUBLE_EQ(rec.series("c.rate")->last(), 0.0);
  rec.SampleNow(30);
  EXPECT_DOUBLE_EQ(rec.series("c.rate")->last(), 0.0);
  counter->Inc(4);
  rec.SampleNow(40);
  EXPECT_DOUBLE_EQ(rec.series("c.rate")->last(), 4.0);
}

TEST(TelemetryRecorderTest, TrackingTwiceReturnsTheSameSeries) {
  MetricRegistry registry;
  TelemetryRecorder rec({}, &registry);
  TimeSeries* first = rec.TrackGauge("g");
  EXPECT_EQ(rec.TrackGauge("g"), first);
  EXPECT_EQ(rec.num_series(), 1u);
}

TEST(TelemetryRecorderTest, RssSeriesReportsAPlausibleResidentSet) {
  MetricRegistry registry;
  TelemetryRecorder rec({}, &registry);
  rec.TrackRss();
  rec.SampleNow(1);
  // Any live process is resident somewhere between 1 MB and 100 GB.
  EXPECT_GT(rec.series("proc.rss_kb")->last(), 1024.0);
  EXPECT_LT(rec.series("proc.rss_kb")->last(), 100.0 * 1024 * 1024);
}

TEST(TimelineTest, TimelineJsonIsWellFormedAndCarriesTheSchema) {
  MetricRegistry registry;
  registry.GetGauge("g")->Set(2.0);
  TelemetryRecorder rec({}, &registry);
  rec.TrackGauge("g");
  for (Time t = 0; t < 300; ++t) rec.SampleNow(t);

  SloWatchdog watchdog(&rec);
  watchdog.AddRule("g value >= 10 for 5");  // will breach
  for (Time t = 300; t < 320; ++t) watchdog.Evaluate(t);

  TimelineMeta meta;
  meta.benchmark = "unit \"test\"";  // escaping must hold
  meta.horizon = 320;
  const std::string json = TimelineToJson(rec, &watchdog, meta);
  EXPECT_TRUE(ValidateJson(json)) << json;
  EXPECT_NE(json.find("\"kind\": \"snapq-timeline\""), std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"verdict\": \"breach\""), std::string::npos);

  // Without a watchdog the document still validates with a pass verdict.
  const std::string bare = TimelineToJson(rec, nullptr, meta);
  EXPECT_TRUE(ValidateJson(bare)) << bare;
  EXPECT_NE(bare.find("\"verdict\": \"pass\""), std::string::npos);
}

}  // namespace
}  // namespace snapq::obs
