// The unified benchmark harness: every experiment driver registered via
// SNAPQ_BENCHMARK in one binary, counted by the hot-path profiler, with
// results written to the canonical BENCH.json (bench_report.h). Typical
// uses:
//
//   snapq_bench --list                   # what is registered
//   snapq_bench --filter fig0 --quick    # fast subset, scaled-down work
//   snapq_bench --out BENCH.json         # full run for the trajectory
//   tools/bench_compare.py old.json new.json
//
// Each benchmark runs once: the drivers are seeded, so a second run would
// count the same work. Time and memory are perfbench's to measure. Driver
// stdout (the paper tables) is routed to /dev/null unless --verbose, so
// the harness output stays a readable progress log.
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "bench_report.h"
#include "bench_util.h"
#include "exec/parallel_sweep.h"
#include "obs/metric_registry.h"
#include "obs/profiler.h"

namespace snapq::bench {
namespace {

struct Options {
  bool list = false;
  bool quick = false;
  bool verbose = false;
  bool sidecars = false;
  int jobs = 0;          // 0 = SNAPQ_JOBS / hardware concurrency
  std::string out = "BENCH.json";
  std::vector<std::string> filters;
};

int Usage(const char* argv0, int code) {
  std::printf(
      "usage: %s [options]\n"
      "  --list            list registered benchmarks and exit\n"
      "  --filter SUBSTR   run only benchmarks whose name contains SUBSTR\n"
      "                    (repeatable; any match selects)\n"
      "  --quick           ~10x less work per benchmark\n"
      "  --jobs N          worker threads for per-seed trial loops\n"
      "                    (default: SNAPQ_JOBS or hardware concurrency;\n"
      "                    results are bit-identical for any N)\n"
      "  --out FILE        where to write BENCH.json (default BENCH.json)\n"
      "  --sidecars        let drivers write their .metrics/.trace sidecars\n"
      "  --verbose         do not silence driver stdout\n",
      argv0);
  return code;
}

/// Redirects fd 1 to /dev/null for the lifetime of the object. Works below
/// stdio/iostream so both printf drivers and std::cout drivers go quiet.
/// Refcounted behind a mutex: fd 1 is process-global state, so nested or
/// concurrent silencers must not each dup/restore it — the first one in
/// redirects, the last one out restores, and anything between is a no-op.
class StdoutSilencer {
 public:
  StdoutSilencer() {
    std::lock_guard<std::mutex> lock(Mutex());
    if (Depth()++ > 0) return;
    std::fflush(stdout);
    std::cout.flush();
    Saved() = dup(1);
    const int devnull = open("/dev/null", O_WRONLY);
    if (Saved() >= 0 && devnull >= 0) dup2(devnull, 1);
    if (devnull >= 0) close(devnull);
  }
  ~StdoutSilencer() {
    std::lock_guard<std::mutex> lock(Mutex());
    if (--Depth() > 0) return;
    std::fflush(stdout);
    std::cout.flush();
    if (Saved() >= 0) {
      dup2(Saved(), 1);
      close(Saved());
      Saved() = -1;
    }
  }
  StdoutSilencer(const StdoutSilencer&) = delete;
  StdoutSilencer& operator=(const StdoutSilencer&) = delete;

 private:
  static std::mutex& Mutex() {
    static std::mutex m;
    return m;
  }
  static int& Depth() {
    static int depth = 0;
    return depth;
  }
  static int& Saved() {
    static int saved = -1;
    return saved;
  }
};

bool Selected(const BenchInfo& info, const Options& opt) {
  if (opt.filters.empty()) return true;
  for (const std::string& f : opt.filters) {
    if (std::strstr(info.name, f.c_str()) != nullptr) return true;
  }
  return false;
}

BenchmarkResult RunOne(const BenchInfo& info, const Options& opt,
                       int driver_reps, int* verdict) {
  RunContext ctx;
  ctx.name = info.name;
  ctx.argv0.clear();  // sidecars (if any) labeled by benchmark name
  ctx.quick = opt.quick;
  ctx.repetitions = driver_reps;
  ctx.write_sidecars = opt.sidecars;
  ctx.jobs = exec::ResolveJobs(opt.jobs);

  using obs::HotOp;
  using obs::Profiler;
  obs::GlobalMetrics().Reset();
  Profiler::Global().Reset();
  Profiler::Enable();
  if (opt.verbose) {
    info.fn(ctx);
  } else {
    StdoutSilencer quiet;
    info.fn(ctx);
  }
  Profiler::Disable();

  BenchmarkResult result;
  result.name = info.name;
  for (size_t op = 0; op < obs::kNumHotOps; ++op) {
    const HotOp hot = static_cast<HotOp>(op);
    result.counters.emplace_back(obs::HotOpName(hot),
                                 Profiler::Global().count(hot));
  }
  *verdict = ctx.exit_code;
  return result;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      opt.list = true;
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--sidecars") {
      opt.sidecars = true;
    } else if (arg == "--filter") {
      opt.filters.emplace_back(value("--filter"));
    } else if (arg == "--jobs") {
      opt.jobs = std::atoi(value("--jobs"));
      if (opt.jobs <= 0) {
        std::fprintf(stderr, "--jobs wants a positive integer\n");
        return 2;
      }
    } else if (arg == "--out") {
      opt.out = value("--out");
    } else if (arg == "--help" || arg == "-h") {
      return Usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return Usage(argv[0], 2);
    }
  }

  const auto& all = Registry::Instance().benchmarks();
  if (opt.list) {
    for (const BenchInfo& info : all) {
      std::printf("%-32s %s\n", info.name, info.description);
    }
    return 0;
  }

  std::vector<const BenchInfo*> selected;
  for (const BenchInfo& info : all) {
    if (Selected(info, opt)) selected.push_back(&info);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "no benchmark matches the filter (of %zu; see "
                 "--list)\n",
                 all.size());
    return 1;
  }

  const int driver_reps = opt.quick ? 1 : Repetitions();

  BenchReport report;
  report.git_sha = GitSha();
  report.timestamp = IsoTimestamp();
  report.quick = opt.quick;
  report.driver_repetitions = driver_reps;

  std::printf("running %zu benchmark(s), %d job(s)%s\n", selected.size(),
              exec::ResolveJobs(opt.jobs), opt.quick ? " (quick)" : "");
  int index = 0;
  std::vector<std::string> unhealthy;
  for (const BenchInfo* info : selected) {
    ++index;
    std::printf("[%2d/%zu] %-32s ", index, selected.size(), info->name);
    std::fflush(stdout);
    int verdict = 0;
    report.benchmarks.push_back(RunOne(*info, opt, driver_reps, &verdict));
    std::printf("%s\n", verdict != 0 ? "UNHEALTHY" : "ok");
    if (verdict != 0) unhealthy.push_back(info->name);
  }

  std::ofstream out(opt.out);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 1;
  }
  out << report.ToJson() << '\n';
  std::printf("wrote %s (%zu benchmarks, git %s)\n", opt.out.c_str(),
              report.benchmarks.size(), report.git_sha.c_str());
  if (!unhealthy.empty()) {
    std::fprintf(stderr, "%zu driver(s) reported an unhealthy verdict:\n",
                 unhealthy.size());
    for (const std::string& name : unhealthy) {
      std::fprintf(stderr, "  %s\n", name.c_str());
    }
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace snapq::bench

int main(int argc, char** argv) { return snapq::bench::Main(argc, argv); }
