#include "obs/metric_registry.h"

#include <gtest/gtest.h>

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
  Histogram* h = reg.GetHistogram("lat", {1.0, 10.0, 100.0});
  h->Observe(0.5);    // bucket 0 (<=1)
  h->Observe(5.0);    // bucket 1 (<=10)
  h->Observe(50.0);   // bucket 2 (<=100)
  h->Observe(500.0);  // overflow bucket
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->sum(), 555.5);
  EXPECT_DOUBLE_EQ(h->max_seen(), 500.0);
  ASSERT_EQ(h->buckets().size(), 4u);  // bounds + overflow
  EXPECT_EQ(h->buckets()[0], 1u);
  EXPECT_EQ(h->buckets()[1], 1u);
  EXPECT_EQ(h->buckets()[2], 1u);
  EXPECT_EQ(h->buckets()[3], 1u);
  // Bounds of a re-registration are ignored; instrument is shared.
  EXPECT_EQ(reg.GetHistogram("lat", {7.0}), h);
  EXPECT_EQ(h->bounds().size(), 3u);
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
  a.GetHistogram("h", {1.0, 2.0})->Observe(0.5);
  b.GetHistogram("h", {1.0, 2.0})->Observe(1.5);

  a.MergeFrom(b);
  EXPECT_EQ(a.GetCounter("runs")->value(), 5u);
  // Gauges keep the high-watermark: merging ten elections whose per-node
  // cost never exceeded six must still read <= 6, never the sum.
  EXPECT_DOUBLE_EQ(a.GetGauge("election.messages_sent", 1)->value(), 6.0);
  EXPECT_DOUBLE_EQ(a.GetGauge("election.messages_sent", 2)->value(), 5.0);
  Histogram* h = a.GetHistogram("h", {1.0, 2.0});
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->buckets()[0], 1u);
  EXPECT_EQ(h->buckets()[1], 1u);
}

TEST(ObsRegistryTest, ToJsonParsesBackAndToCsvShape) {
  MetricRegistry reg;
  reg.GetCounter("net.sent")->Inc(42);
  reg.GetGauge("size", 7)->Set(3.5);
  reg.GetHistogram("lat", {1.0})->Observe(2.0);
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

}  // namespace
}  // namespace snapq::obs
