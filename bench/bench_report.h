// The BENCH.json report model. The snapq_bench harness fills one
// BenchReport per run; ToJson() emits the canonical document that
// tools/bench_compare.py diffs across commits, so its field names and
// types are a frozen schema (DESIGN.md §10; the golden test in
// tests/bench/bench_report_test.cc pins it). It holds counters only: time
// and memory are perfbench's to measure.
#ifndef SNAPQ_BENCH_BENCH_REPORT_H_
#define SNAPQ_BENCH_BENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace snapq::bench {

inline constexpr int kBenchSchemaVersion = 2;

/// One benchmark's hot-op totals. The drivers are seeded, so these counts
/// are a function of the code and the options alone: two runs of one tree
/// agree exactly, whatever the host or --jobs.
struct BenchmarkResult {
  std::string name;
  std::vector<std::pair<std::string, uint64_t>> counters;
};

struct BenchReport {
  std::string git_sha;
  std::string timestamp;  // ISO-8601 UTC, e.g. "2026-02-03T04:05:06Z"
  bool quick = false;
  int driver_repetitions = 0;  // seeds per data point inside a driver
  std::vector<BenchmarkResult> benchmarks;

  std::string ToJson() const;
};

/// Commit to stamp into the report: $SNAPQ_GIT_SHA, else $GITHUB_SHA,
/// else `git rev-parse HEAD`, else "unknown".
std::string GitSha();

/// Current UTC time in the timestamp format above.
std::string IsoTimestamp();

}  // namespace snapq::bench

#endif  // SNAPQ_BENCH_BENCH_REPORT_H_
