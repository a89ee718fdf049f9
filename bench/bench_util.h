// Shared helpers for the experiment drivers in bench/. Each driver
// regenerates one table or figure of the paper and prints the same
// rows/series the paper reports (averaged over the paper's 10 repetitions,
// overridable via SNAPQ_REPETITIONS or --quick).
#ifndef SNAPQ_BENCH_BENCH_UTIL_H_
#define SNAPQ_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_registry.h"
#include "bench_report.h"
#include "obs/energy_ledger.h"
#include "obs/metric_registry.h"
#include "obs/perfetto_export.h"
#include "obs/timeline.h"
#include "obs/topo.h"
#include "obs/tracer.h"

namespace snapq::bench {

/// Number of repetitions per data point (§6.1: "We repeated each
/// experiment ten times and present the average values").
inline constexpr int kRepetitions = 10;
inline constexpr uint64_t kBaseSeed = 1;

/// kRepetitions unless the SNAPQ_REPETITIONS environment variable names a
/// positive integer — CI quick passes set it instead of editing sources.
inline int Repetitions() {
  if (const char* env = std::getenv("SNAPQ_REPETITIONS");
      env != nullptr && *env != '\0') {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<int>(parsed);
  }
  return kRepetitions;
}

inline void PrintHeader(const char* experiment, const char* setup,
                        int repetitions) {
  std::printf("=== %s ===\n", experiment);
  std::printf("%s\n", setup);
  std::printf("(averages over %d seeded repetitions)\n\n", repetitions);
}

/// Where a driver's `<name><suffix>` sidecar goes. The name is always the
/// binary's basename (argv0 is canonicalized first, so a relative
/// invocation from another CWD or a symlinked driver cannot mislabel the
/// file); the directory is `SNAPQ_METRICS_DIR` when set, else the
/// directory the binary resolves to.
inline std::string SidecarPath(const char* argv0, const char* suffix) {
  namespace fs = std::filesystem;
  fs::path exe(argv0 != nullptr && *argv0 != '\0' ? argv0 : "driver");
  std::error_code ec;
  const fs::path resolved = fs::weakly_canonical(exe, ec);
  if (!ec && !resolved.empty()) exe = resolved;
  std::string name = exe.filename().string();
  if (name.empty()) name = "driver";
  fs::path dir = exe.parent_path();
  if (const char* env = std::getenv("SNAPQ_METRICS_DIR");
      env != nullptr && *env != '\0') {
    dir = env;
  }
  if (dir.empty()) dir = ".";
  return (dir / (name + suffix)).string();
}

/// Writes the process-wide metric registry (every trial merges its
/// simulation registry into it) as a machine-readable sidecar:
/// `<basename(argv0)>.metrics.json` (see SidecarPath). Called by
/// Driver's destructor so each table/figure run leaves its instruments on
/// disk.
inline void WriteMetricsSidecar(const char* argv0) {
  const std::string path = SidecarPath(argv0, ".metrics.json");
  if (!obs::WriteTextFileAtomic(path,
                                obs::GlobalMetrics().ToJson() + '\n')) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::printf("\nmetrics sidecar: %s\n", path.c_str());
}

/// Writes `tracer`'s spans as Chrome trace-event JSON to
/// `<basename(argv0)>.trace.json` — drag it into ui.perfetto.dev to see
/// per-node tracks with message arrows.
inline void WriteTraceSidecar(const char* argv0, const obs::Tracer& tracer) {
  const std::string path = SidecarPath(argv0, ".trace.json");
  if (!obs::WriteChromeTraceFile(tracer, path)) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::printf("trace sidecar: %s (%zu spans, %llu traces)\n", path.c_str(),
              tracer.spans().size(),
              static_cast<unsigned long long>(tracer.num_traces()));
}

/// Writes an energy ledger snapshot as the schema-versioned
/// `<basename(argv0)>.energymap.json` sidecar (node positions, per-cause
/// joule breakdown, remaining charge, lifetime forecasts). Consumed by
/// tools/energy_report.py — including the CI energy-savings gate.
inline void WriteEnergyMapSidecar(const char* argv0,
                                  const obs::EnergyLedgerSnapshot& snap,
                                  const std::vector<Point>& positions,
                                  const obs::EnergyMapMeta& meta) {
  const std::string path = SidecarPath(argv0, ".energymap.json");
  if (!obs::WriteTextFileAtomic(
          path, obs::EnergyMapToJson(snap, positions, meta))) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::printf("energymap sidecar: %s (%zu nodes, 1 runs)\n", path.c_str(),
              snap.num_nodes);
}

/// Writes a topology snapshot as the schema-versioned
/// `<basename(argv0)>.topo.json` sidecar (structural summary, per-node
/// positions/components, bridge and articulation lists, observed link
/// quality). Consumed by tools/topo_report.py — including the CI
/// tools-check gate.
inline void WriteTopoSidecar(const char* argv0,
                             const obs::TopologySnapshot& snap,
                             const std::vector<Point>& positions,
                             const std::vector<obs::LinkStats>& links,
                             const obs::TopoMapMeta& meta) {
  const std::string path = SidecarPath(argv0, ".topo.json");
  if (!obs::WriteTextFileAtomic(
          path, obs::TopoMapToJson(snap, positions, links, meta))) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::printf("topo sidecar: %s (%zu nodes, %zu partition%s, %zu links)\n",
              path.c_str(), snap.num_nodes, snap.partitions,
              snap.partitions == 1 ? "" : "s", links.size());
}

/// RAII frame around one driver body: prints the standard header on entry
/// and writes the metrics sidecar on exit (when the context asks for
/// sidecars), replacing the PrintHeader/WriteMetricsSidecar pairs every
/// driver used to repeat. Trace sidecars go through WriteTrace so only
/// the drivers that trace pay for it.
class Driver {
 public:
  Driver(const RunContext& ctx, const char* experiment, const char* setup)
      : ctx_(ctx) {
    PrintHeader(experiment, setup, ctx.repetitions);
    if (ctx.quick) {
      std::printf("(quick mode: repetitions and horizons scaled down)\n\n");
    }
  }

  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  ~Driver() {
    if (ctx_.write_sidecars) WriteMetricsSidecar(SidecarBase().c_str());
  }

  void WriteTrace(const obs::Tracer& tracer) const {
    if (ctx_.write_sidecars) WriteTraceSidecar(SidecarBase().c_str(), tracer);
  }

  /// Writes the `.energymap.json` sidecar, stamping the benchmark name,
  /// git sha and quick flag from the run context. `t` is the sim tick the
  /// snapshot was taken at; `extras` carries driver-specific scalars
  /// (AUCs, savings ratios) for the report tooling.
  void WriteEnergyMap(
      const obs::EnergyLedgerSnapshot& snap,
      const std::vector<Point>& positions, Time t,
      std::vector<std::pair<std::string, double>> extras) const {
    if (!ctx_.write_sidecars) return;
    obs::EnergyMapMeta meta;
    meta.benchmark = ctx_.name;
    meta.git_sha = GitSha();
    meta.quick = ctx_.quick;
    meta.t = t;
    meta.extras = std::move(extras);
    WriteEnergyMapSidecar(SidecarBase().c_str(), snap, positions, meta);
  }

  /// Writes the `.topo.json` sidecar, stamping the benchmark name, git sha
  /// and quick flag from the run context. `t` is the sim tick the snapshot
  /// was analyzed at; `extras` carries driver-specific scalars (per-range
  /// partition counts, horizons) for the report tooling.
  void WriteTopoMap(const obs::TopologySnapshot& snap,
                    const std::vector<Point>& positions,
                    const std::vector<obs::LinkStats>& links, Time t,
                    std::vector<std::pair<std::string, double>> extras) const {
    if (!ctx_.write_sidecars) return;
    obs::TopoMapMeta meta;
    meta.benchmark = ctx_.name;
    meta.git_sha = GitSha();
    meta.quick = ctx_.quick;
    meta.t = t;
    meta.extras = std::move(extras);
    WriteTopoSidecar(SidecarBase().c_str(), snap, positions, links, meta);
  }

 private:
  /// Standalone runs label sidecars by binary path; harness runs (empty
  /// argv0) fall back to the benchmark name, resolved against the CWD or
  /// SNAPQ_METRICS_DIR by SidecarPath.
  std::string SidecarBase() const {
    return ctx_.argv0.empty() ? ctx_.name : ctx_.argv0;
  }

  const RunContext& ctx_;
};

}  // namespace snapq::bench

#endif  // SNAPQ_BENCH_BENCH_UTIL_H_
