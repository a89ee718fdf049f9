#include "bench_report.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "obs/json.h"

namespace snapq::bench {

using obs::JsonEscape;

std::string BenchReport::ToJson() const {
  std::string out = "{";
  out += "\"schema_version\":" + std::to_string(kBenchSchemaVersion);
  out += ",\"git_sha\":\"" + JsonEscape(git_sha) + "\"";
  out += ",\"timestamp\":\"" + JsonEscape(timestamp) + "\"";
  out += std::string(",\"quick\":") + (quick ? "true" : "false");
  out += ",\"driver_repetitions\":" + std::to_string(driver_repetitions);
  out += ",\"benchmarks\":[";
  bool first_bench = true;
  for (const BenchmarkResult& b : benchmarks) {
    if (!first_bench) out += ',';
    first_bench = false;
    out += "{\"name\":\"" + JsonEscape(b.name) + "\",\"counters\":{";
    bool first = true;
    for (const auto& [key, value] : b.counters) {
      if (!first) out += ',';
      first = false;
      out += "\"" + JsonEscape(key) + "\":" + std::to_string(value);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string GitSha() {
  for (const char* var : {"SNAPQ_GIT_SHA", "GITHUB_SHA"}) {
    if (const char* env = std::getenv(var); env != nullptr && *env != '\0') {
      return env;
    }
  }
  if (FILE* pipe = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[128] = {};
    const size_t n = fread(buf, 1, sizeof(buf) - 1, pipe);
    const int status = pclose(pipe);
    std::string sha(buf, n);
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
      sha.pop_back();
    }
    if (status == 0 && sha.size() == 40) return sha;
  }
  return "unknown";
}

std::string IsoTimestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buf[32] = {};
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buf;
}

}  // namespace snapq::bench
