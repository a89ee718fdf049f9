// The benchmark registry behind the unified `snapq_bench` harness. Every
// experiment driver registers itself with SNAPQ_BENCHMARK(name, desc) and
// receives a RunContext instead of parsing argv, so the same body serves
// three callers:
//
//   * its standalone binary (`./build/bench/fig06_classes`) via
//     StandaloneMain — unchanged behavior, sidecars included;
//   * the unified harness (`./build/bench/snapq_bench --filter fig06`)
//     which counts its hot-path work and emits BENCH.json;
//   * quick CI passes (`--quick` / SNAPQ_REPETITIONS=1) that scale the
//     repetitions and horizons down by ~10x.
#ifndef SNAPQ_BENCH_BENCH_REGISTRY_H_
#define SNAPQ_BENCH_BENCH_REGISTRY_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace snapq::bench {

/// Everything a driver body is allowed to depend on. Drivers must take
/// repetition counts and horizons from here (not file-level constants) so
/// quick mode and the SNAPQ_REPETITIONS override reach them.
struct RunContext {
  /// Registered benchmark name (also the sidecar basename in harness
  /// runs).
  std::string name;
  /// Path of the running binary (argv[0]) in standalone runs; empty under
  /// the harness. Used only for sidecar placement.
  std::string argv0;
  /// Quick mode: one repetition, horizons divided by 10.
  bool quick = false;
  /// The paper's per-data-point repetitions (kRepetitions), after the
  /// SNAPQ_REPETITIONS env override; 1 in quick mode.
  int repetitions = 10;
  /// Whether the driver should leave `.metrics.json`/`.trace.json`
  /// sidecars (standalone: yes; harness: only with --sidecars).
  bool write_sidecars = true;
  /// Worker threads for the per-seed trial loops (exec::ParallelMap).
  /// 1 = serial (bit-identical reference behavior); the harness and
  /// standalone mains default it to --jobs / SNAPQ_JOBS / hardware
  /// concurrency via exec::ResolveJobs.
  int jobs = 1;
  /// Driver verdict: a body that detects a failure (an SLO breach in the
  /// soak driver, a violated invariant) sets this non-zero and keeps
  /// running. StandaloneMain and the harness propagate the worst verdict
  /// as the process exit code. Mutable so the body can set it through the
  /// const context reference.
  mutable int exit_code = 0;

  /// Scales a driver-internal count or horizon for quick mode: full
  /// normally, max(1, full / 10) when quick.
  int64_t Scaled(int64_t full) const {
    return quick ? std::max<int64_t>(1, full / 10) : full;
  }
};

using BenchFn = void (*)(const RunContext&);

struct BenchInfo {
  const char* name;
  const char* description;
  BenchFn fn;
};

/// Process-wide list of registered benchmarks, ordered by name.
class Registry {
 public:
  static Registry& Instance();

  /// Called by SNAPQ_BENCHMARK at static-init time. Returns true (the
  /// macro binds it to a dummy bool).
  bool Add(const char* name, const char* description, BenchFn fn);

  const std::vector<BenchInfo>& benchmarks() const { return benchmarks_; }
  const BenchInfo* Find(const std::string& name) const;

 private:
  std::vector<BenchInfo> benchmarks_;
};

/// main() of a standalone driver binary: runs every benchmark linked into
/// it (one, for the per-figure binaries) with full repetitions and
/// sidecars. Accepts --quick.
int StandaloneMain(int argc, char** argv);

}  // namespace snapq::bench

/// Defines and registers one benchmark body:
///
///   SNAPQ_BENCHMARK(fig06_classes, "Figure 6: representatives vs K") {
///     bench::Driver driver(ctx, "...", "...");
///     ... use ctx.repetitions / ctx.Scaled(...) ...
///   }
#define SNAPQ_BENCHMARK(id, desc)                                         \
  static void SnapqBenchRun_##id(const ::snapq::bench::RunContext& ctx);  \
  [[maybe_unused]] static const bool snapq_bench_registered_##id =        \
      ::snapq::bench::Registry::Instance().Add(#id, desc,                 \
                                               &SnapqBenchRun_##id);      \
  static void SnapqBenchRun_##id(const ::snapq::bench::RunContext& ctx)

#endif  // SNAPQ_BENCH_BENCH_REGISTRY_H_
