// snapq_perfbench: runs one benchmark workload and prints its metrics.
//
//   snapq_perfbench --workload dense_elect --seed 1 --seconds 15 --trace 0
//                   [--out-dir DIR]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; end-to-end metrics with --trace 0, per-layer ones
// with --trace 1. The exit code is 0 only when every check passed.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: snapq_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\nworkloads:",
               why);
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value after a flag");
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = perfbench::IsWorkload(value);
      if (!have_workload) return Usage("unknown workload");
    } else if (flag == "--seed") {
      if (!ParseUint(value, &options.seed)) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n == 0 || n > 120) {
        return Usage("--seconds must be 1..120");
      }
      options.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!ParseUint(value, &n) || n > 1) return Usage("--trace must be 0 or 1");
      options.trace = n == 1;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (!have_workload) return Usage("--workload is required");

  const int64_t wall0 = perfbench::NowNs();
  const int64_t cpu0 = perfbench::CpuNs();
  const perfbench::RunResult result = perfbench::RunWorkload(options);
  const double wall_s = static_cast<double>(perfbench::NowNs() - wall0) / 1e9;
  const double cpu_s = static_cast<double>(perfbench::CpuNs() - cpu0) / 1e9;

  std::printf("workload %s  seed %" PRIu64 "  %s run  units %zu\n",
              options.workload.c_str(), options.seed,
              options.trace ? "traced" : "untraced", result.units);
  std::printf("digest %s (outcome of the counted units)\n",
              result.digest.c_str());
  std::printf("wall %.3f s  cpu %.3f s\n", wall_s, cpu_s);
  for (const std::string& line : result.notes) std::printf("%s\n", line.c_str());
  std::printf("%-34s %14s %-9s %8s\n", "metric", "value", "unit", "samples");
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("%-34s %14.4f %-9s %8zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }
  std::printf("checks: %" PRIu64 " attempted, %" PRIu64 " failed\n",
              result.ok.attempted(), result.ok.failed());
  for (const std::string& f : result.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(result.metrics, result.ok).c_str());
  std::fflush(stdout);
  return result.ok.failed() == 0 && result.ok.attempted() > 0 ? 0 : 1;
}
