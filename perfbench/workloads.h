// The three benchmark workloads. Each runs single-threaded in its own
// process, takes its inputs from the seed alone, times a repeated unit
// (a §6.1 trial or a maintenance round) plus the queries issued between
// units, and checks the simulated outcome:
//
//   dense_elect      the §6.1 setup verbatim, one seeded trial per unit;
//   scale_maintain   10,000 nodes on a drifting correlated field, one
//                    maintenance round per unit with mobility and deaths;
//   monitored_serve  1,000 nodes at 5% loss with every observer attached,
//                    one round per unit and a closed-loop query client.
//
// With `trace` set the run records spans around every library call it
// makes and reports per-layer metrics instead of end-to-end ones.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span and per-unit digest files; empty writes none.
  std::string out_dir;
};

struct RunResult {
  std::vector<Metric> metrics;
  OkCounter ok;
  /// Digest of the simulated outcome of the counted units: dense_elect's
  /// first kCountedUnits trials, or the first kCountedUnits / 9 rounds
  /// (rounded up) of each of a field workload's deployments.
  std::string digest;
  size_t units = 0;
  /// The first few failed checks, for the log.
  std::vector<std::string> failures;
  /// Extra report lines (the traced run's layer table).
  std::vector<std::string> notes;
};

/// Units whose outcome feeds the digest and the per-unit counts (see
/// RunResult::digest); every run times at least this many units, so p90
/// has 10 samples beyond it.
inline constexpr size_t kCountedUnits = 100;

const std::vector<std::string>& WorkloadNames();
bool IsWorkload(std::string_view name);

/// Runs `options.workload` to completion. Never throws; failed checks are
/// counted in the result's OkCounter.
RunResult RunWorkload(const RunOptions& options);

// -- Seeded inputs (exposed for the determinism tests) ------------------------

/// dense_elect's trial seeds: one cycle the units walk through in order.
std::vector<uint64_t> DenseTrialSeeds(uint64_t seed);

/// The SQL a monitored_serve client sends in query round `round` (one per
/// deployment and maintenance round): snapshot and regular statements in
/// pairs over the same region.
std::vector<std::string> QueryMix(uint64_t seed, size_t round);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
