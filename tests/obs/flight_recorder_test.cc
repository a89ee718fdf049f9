// The flight recorder ring and the blackbox dump: bounded retention,
// transparent tee-through to the previous sink, and a well-formed
// blackbox document carrying the breaching window's journal events.
#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "obs/json.h"
#include "obs/metric_registry.h"
#include "obs/slo.h"
#include "obs/timeseries.h"

namespace snapq::obs {
namespace {

std::vector<std::string> Retained(const FlightRecorder& rec) {
  std::vector<std::string> lines;
  rec.ForEach([&lines](const std::string& line) { lines.push_back(line); });
  return lines;
}

TEST(FlightRecorderTest, RingKeepsTheLastNLinesInOrder) {
  FlightRecorder rec(3);
  for (int i = 0; i < 10; ++i) rec.Write("line" + std::to_string(i));
  EXPECT_EQ(rec.capacity(), 3u);
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.total_written(), 10u);
  EXPECT_EQ(Retained(rec),
            (std::vector<std::string>{"line7", "line8", "line9"}));
}

TEST(FlightRecorderTest, TeesEveryLineToTheForwardSink) {
  auto forward = std::make_unique<MemoryJournalSink>();
  MemoryJournalSink* forward_raw = forward.get();
  FlightRecorder rec(2);
  rec.SetForward(std::move(forward));
  for (int i = 0; i < 5; ++i) {
    std::string line = "l";
    line += std::to_string(i);
    rec.Write(line);
  }
  // The ring is bounded; the forward sink sees everything.
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(forward_raw->lines().size(), 5u);
}

TEST(FlightRecorderTest, SplicesInFrontOfAJournalSinkViaReplaceSink) {
  EventJournal journal;
  auto* old_sink = static_cast<MemoryJournalSink*>(
      journal.SetSink(std::make_unique<MemoryJournalSink>()));

  auto recorder = std::make_unique<FlightRecorder>(8);
  FlightRecorder* rec = recorder.get();
  rec->SetForward(journal.ReplaceSink(std::move(recorder)));

  journal.Emit("e", 1, [](JournalEvent& e) { e.Int("k", 1); });
  journal.Emit("e", 2, [](JournalEvent& e) { e.Int("k", 2); });
  EXPECT_EQ(rec->size(), 2u);
  // The previous sink still receives every line through the tee.
  EXPECT_EQ(old_sink->lines().size(), 2u);
  EXPECT_EQ(Retained(*rec), old_sink->lines());
}

TEST(FlightRecorderTest, DoubleSpliceTeesEachLineToTheOriginalSinkOnce) {
  // Two recorders spliced in sequence (e.g. EnableTelemetry called while
  // another tee is already installed) must chain, not fork: the newest
  // ring sees the line first, forwards to the older ring, which forwards
  // to the original sink — each line lands there exactly once.
  EventJournal journal;
  auto* original = static_cast<MemoryJournalSink*>(
      journal.SetSink(std::make_unique<MemoryJournalSink>()));

  auto first = std::make_unique<FlightRecorder>(8);
  FlightRecorder* inner = first.get();
  inner->SetForward(journal.ReplaceSink(std::move(first)));

  auto second = std::make_unique<FlightRecorder>(8);
  FlightRecorder* outer = second.get();
  outer->SetForward(journal.ReplaceSink(std::move(second)));

  for (int i = 0; i < 3; ++i) {
    journal.Emit("e", i, [i](JournalEvent& e) { e.Int("k", i); });
  }
  EXPECT_EQ(outer->size(), 3u);
  EXPECT_EQ(inner->size(), 3u);
  ASSERT_EQ(original->lines().size(), 3u);  // once each, no duplication
  EXPECT_EQ(Retained(*outer), original->lines());
  EXPECT_EQ(Retained(*inner), original->lines());
}

TEST(FlightRecorderTest, InstallingOnADisabledJournalEnablesIt) {
  EventJournal journal;
  EXPECT_FALSE(journal.enabled());
  auto recorder = std::make_unique<FlightRecorder>(4);
  FlightRecorder* rec = recorder.get();
  rec->SetForward(journal.ReplaceSink(std::move(recorder)));  // old = null
  EXPECT_TRUE(journal.enabled());
  journal.Emit("e", 1);
  EXPECT_EQ(rec->size(), 1u);
}

TEST(FlightRecorderTest, BlackboxDumpIsWellFormedAndCarriesTheJournal) {
  MetricRegistry registry;
  registry.GetGauge("g")->Set(1.0);
  TelemetryRecorder telemetry({}, &registry);
  telemetry.TrackGauge("g");
  for (Time t = 0; t < 50; ++t) telemetry.SampleNow(t);

  SloWatchdog watchdog(&telemetry);
  watchdog.AddRule("g value >= 5 for 3");
  for (Time t = 50; t < 60; ++t) watchdog.Evaluate(t);
  ASSERT_FALSE(watchdog.healthy());

  // 20 events through a 16-slot ring: the dump must hold the last 16.
  FlightRecorder ring(16);
  for (int i = 0; i < 20; ++i) {
    JournalEvent e("proto.step", i);
    e.Int("n", i);
    ring.Write(e.ToJsonLine());
  }

  BlackboxContext ctx;
  ctx.reason = "slo_breach: test";
  ctx.benchmark = "unit";
  ctx.now = 59;
  ctx.recorder = &telemetry;
  ctx.watchdog = &watchdog;

  const std::string path = ::testing::TempDir() + "blackbox_test.json";
  ASSERT_TRUE(WriteBlackbox(&ring, ctx, path));

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  std::remove(path.c_str());

  EXPECT_TRUE(ValidateJson(doc)) << doc;
  EXPECT_NE(doc.find("\"kind\": \"snapq-blackbox\""), std::string::npos);
  EXPECT_NE(doc.find("\"reason\": \"slo_breach: test\""), std::string::npos);
  EXPECT_NE(doc.find("\"verdict\": \"breach\""), std::string::npos);
  // The retained journal window is embedded verbatim: the ring holds the
  // last 16 of 20 events, so event 4 is the oldest present.
  EXPECT_EQ(doc.find("\"n\":3"), std::string::npos);
  EXPECT_NE(doc.find("\"n\":4"), std::string::npos);
  EXPECT_NE(doc.find("\"n\":19"), std::string::npos);
}

TEST(FlightRecorderTest, BlackboxHandlesAbsentSubsystems) {
  BlackboxContext ctx;
  ctx.reason = "invariant_failure";
  const std::string path = ::testing::TempDir() + "blackbox_empty.json";
  ASSERT_TRUE(WriteBlackbox(nullptr, ctx, path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::remove(path.c_str());
  EXPECT_TRUE(ValidateJson(buf.str())) << buf.str();
}

}  // namespace
}  // namespace snapq::obs
