#include "obs/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "obs/json.h"

namespace snapq::obs {
namespace {

TEST(ObsJournalTest, EventJsonRoundTrip) {
  JournalEvent event("election.mode", 101);
  event.Node(17).Epoch(3).Str("mode", "active").Num("score", 2.5).Bool(
      "snooped", true);
  const std::string line = event.ToJsonLine();
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const std::optional<JournalEvent> parsed = JournalEvent::Parse(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->name(), "election.mode");
  EXPECT_EQ(parsed->time(), 101);
  EXPECT_EQ(parsed->GetInt("node"), 17);
  EXPECT_EQ(parsed->GetInt("epoch"), 3);
  EXPECT_EQ(parsed->GetStr("mode"), "active");
  EXPECT_EQ(parsed->GetNum("score"), 2.5);
  EXPECT_EQ(parsed->GetBool("snooped"), true);
  EXPECT_FALSE(parsed->GetInt("absent").has_value());
  // Num() reads integer fields too (attribution scripts don't care).
  EXPECT_EQ(parsed->GetNum("node"), 17.0);
}

TEST(ObsJournalTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(JournalEvent::Parse("").has_value());
  EXPECT_FALSE(JournalEvent::Parse("not json").has_value());
  EXPECT_FALSE(JournalEvent::Parse("{\"t\":1}").has_value());  // no event
  EXPECT_FALSE(
      JournalEvent::Parse("{\"event\":\"x\"}").has_value());  // no t
  EXPECT_FALSE(JournalEvent::Parse("{\"event\":\"x\",\"t\":1")
                   .has_value());  // truncated
  // Lines ValidateJson rejects: the flat parser shares its grammar.
  for (const char* bad :
       {"{\"event\":\"x\",\"t\":inf}", "{\"event\":\"x\",\"t\":0x10}",
        "{\"event\":\"x\",\"t\":+1}", "{\"event\":\"x\",\"t\":01}",
        "{\"event\":\"x\",\"t\":.5}", "{\"event\":\"x\x01\",\"t\":1}",
        "{\"event\":\"x\",\"t\":1,}"}) {
    EXPECT_FALSE(ValidateJson(bad)) << bad;
    EXPECT_FALSE(JournalEvent::Parse(bad).has_value()) << bad;
  }
  // Valid JSON, but not flat.
  EXPECT_FALSE(
      JournalEvent::Parse("{\"event\":\"x\",\"t\":1,\"a\":[1]}").has_value());
}

TEST(ObsJournalTest, EscapedStringsSurviveRoundTrip) {
  JournalEvent event("q", 0);
  event.Str("sql", "SELECT \"x\"\n\tFROM y\\z");
  const std::optional<JournalEvent> parsed =
      JournalEvent::Parse(event.ToJsonLine());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->GetStr("sql"), "SELECT \"x\"\n\tFROM y\\z");
  // Our writers emit a backspace as \u0008, but the short escape is JSON.
  const std::string backspace = "{\"event\":\"x\",\"t\":1,\"s\":\"a\\bz\"}";
  ASSERT_TRUE(ValidateJson(backspace));
  const std::optional<JournalEvent> decoded = JournalEvent::Parse(backspace);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->GetStr("s"), "a\bz");
}

TEST(ObsJournalTest, DisabledJournalSkipsFillCallback) {
  EventJournal journal;
  EXPECT_FALSE(journal.enabled());
  bool fill_ran = false;
  journal.Emit("x", 1, [&](JournalEvent&) { fill_ran = true; });
  EXPECT_FALSE(fill_ran);
  EXPECT_EQ(journal.events_emitted(), 0u);
}

TEST(ObsJournalTest, MemorySinkRecordsAndCaps) {
  EventJournal journal;
  auto* sink = static_cast<MemoryJournalSink*>(
      journal.SetSink(std::make_unique<MemoryJournalSink>(3)));
  EXPECT_TRUE(journal.enabled());
  for (int i = 0; i < 5; ++i) {
    journal.Emit("tick", i, [&](JournalEvent& e) { e.Int("i", i); });
  }
  EXPECT_EQ(journal.events_emitted(), 5u);
  ASSERT_EQ(sink->lines().size(), 3u);  // capped, oldest dropped
  const std::optional<JournalEvent> first =
      JournalEvent::Parse(sink->lines().front());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->GetInt("i"), 2);
}

TEST(ObsJournalTest, FileSinkWritesJsonlThatParsesBack) {
  const std::string path =
      testing::TempDir() + "/obs_journal_test.jsonl";
  {
    EventJournal journal;
    journal.SetSink(std::make_unique<FileJournalSink>(path));
    journal.Emit("a", 1, [](JournalEvent& e) { e.Node(4); });
    journal.Emit("b", 2);
    journal.Flush();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t parsed = 0;
  while (std::getline(in, line)) {
    ASSERT_TRUE(JournalEvent::Parse(line).has_value()) << line;
    ++parsed;
  }
  EXPECT_EQ(parsed, 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace snapq::obs
