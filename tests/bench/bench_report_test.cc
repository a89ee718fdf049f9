// Pins the BENCH.json contract: the golden-schema test freezes field
// names, nesting and number formatting (tools/bench_compare.py and the
// committed bench/baseline/BENCH.json parse this exact shape), plus the
// registry and RunContext mechanics the harness depends on.
#include "bench_report.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "bench_registry.h"
#include "obs/json.h"

namespace snapq::bench {
namespace {

TEST(BenchReportTest, GoldenSchema) {
  // FROZEN: tools/bench_compare.py and downstream BENCH.json trajectory
  // tooling parse exactly this document. Renaming, retyping or reordering
  // a field requires bumping kBenchSchemaVersion and updating the
  // comparator in the same change.
  BenchReport report;
  report.git_sha = "abc123";
  report.timestamp = "2026-01-02T03:04:05Z";
  report.quick = true;
  report.driver_repetitions = 2;

  BenchmarkResult b;
  b.name = "fig_example";
  b.counters.emplace_back("messages_sent", 42);
  b.counters.emplace_back("model_fits", 7);
  report.benchmarks.push_back(b);
  report.benchmarks.push_back(BenchmarkResult{"fig_empty", {}});

  EXPECT_EQ(report.ToJson(),
            "{\"schema_version\":2,"
            "\"git_sha\":\"abc123\","
            "\"timestamp\":\"2026-01-02T03:04:05Z\","
            "\"quick\":true,"
            "\"driver_repetitions\":2,"
            "\"benchmarks\":[{"
            "\"name\":\"fig_example\","
            "\"counters\":{\"messages_sent\":42,\"model_fits\":7}},"
            "{\"name\":\"fig_empty\",\"counters\":{}}]}");
}

TEST(BenchReportTest, EmptyReportIsValidJson) {
  const BenchReport report{.git_sha = "x", .timestamp = "t", .benchmarks = {}};
  EXPECT_TRUE(obs::ValidateJson(report.ToJson()));
}

TEST(BenchReportTest, GoldenDocumentIsValidJson) {
  BenchReport report;
  report.git_sha = "quote\"backslash\\";
  report.timestamp = "2026-01-02T03:04:05Z";
  BenchmarkResult b;
  b.name = "x";
  b.counters.emplace_back("messages_sent", 1);
  report.benchmarks.push_back(b);
  EXPECT_TRUE(obs::ValidateJson(report.ToJson()));
}

TEST(BenchReportTest, GitShaPrefersEnvOverride) {
  setenv("SNAPQ_GIT_SHA", "f00dfaced00d", 1);
  EXPECT_EQ(GitSha(), "f00dfaced00d");
  unsetenv("SNAPQ_GIT_SHA");
  EXPECT_FALSE(GitSha().empty());  // git or "unknown", never empty
}

TEST(BenchReportTest, IsoTimestampShape) {
  const std::string ts = IsoTimestamp();
  ASSERT_EQ(ts.size(), 20u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts.back(), 'Z');
}

TEST(RunContextTest, ScaledDividesByTenOnlyInQuickMode) {
  RunContext full;
  EXPECT_EQ(full.Scaled(9000), 9000);
  EXPECT_EQ(full.Scaled(3), 3);
  RunContext quick;
  quick.quick = true;
  EXPECT_EQ(quick.Scaled(9000), 900);
  EXPECT_EQ(quick.Scaled(200), 20);
  EXPECT_EQ(quick.Scaled(3), 1);  // never scales to zero
  EXPECT_EQ(quick.Scaled(1), 1);
}

TEST(RegistryTest, AddKeepsNamesSortedAndFindable) {
  // This test binary links no drivers, so the registry starts empty and
  // we own its contents.
  auto& registry = Registry::Instance();
  const size_t before = registry.benchmarks().size();
  registry.Add("zz_test_second", "second", nullptr);
  registry.Add("aa_test_first", "first", nullptr);
  ASSERT_EQ(registry.benchmarks().size(), before + 2);
  const auto& all = registry.benchmarks();
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(std::string(all[i - 1].name), std::string(all[i].name));
  }
  EXPECT_NE(registry.Find("aa_test_first"), nullptr);
  EXPECT_STREQ(registry.Find("aa_test_first")->description, "first");
  EXPECT_EQ(registry.Find("no_such_benchmark"), nullptr);
}

}  // namespace
}  // namespace snapq::bench
