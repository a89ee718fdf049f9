// Unit tests for the hot-path profiler's counter mechanics.
#include "obs/profiler.h"

#include <gtest/gtest.h>

namespace snapq::obs {
namespace {

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

TEST(ProfilerTest, ToTableMentionsEveryOpWithItsCount) {
  Profiler profiler;
  profiler.Count(HotOp::kCacheOps, 2);
  const std::string table = profiler.ToTable();
  for (size_t i = 0; i < kNumHotOps; ++i) {
    EXPECT_NE(table.find(HotOpName(static_cast<HotOp>(i))),
              std::string::npos);
  }
  EXPECT_NE(table.find("cache_ops"), std::string::npos);
  EXPECT_EQ(table.find("per second"), std::string::npos);  // counts only
}

}  // namespace
}  // namespace snapq::obs
