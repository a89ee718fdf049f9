#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/rng.h"

namespace perfbench {

size_t SamplesBeyond(size_t n, double pct) {
  // Integer arithmetic in thousandths of a percent keeps 90.0 exact.
  const auto milli = static_cast<uint64_t>(std::llround(pct * 1000.0));
  if (milli >= 100000) return 0;
  return static_cast<size_t>(static_cast<uint64_t>(n) * (100000 - milli) /
                             100000);
}

double OkCounter::ok_pct() const {
  if (attempted_ == 0) return 0.0;
  return 100.0 * static_cast<double>(attempted_ - failed_) /
         static_cast<double>(attempted_);
}

std::optional<int64_t> ParseStatusKb(std::string_view status,
                                     std::string_view key) {
  size_t pos = 0;
  while (pos < status.size()) {
    size_t end = status.find('\n', pos);
    if (end == std::string_view::npos) end = status.size();
    const std::string_view line = status.substr(pos, end - pos);
    pos = end + 1;
    if (line.size() <= key.size() || line.substr(0, key.size()) != key ||
        line[key.size()] != ':') {
      continue;
    }
    std::string_view rest = line.substr(key.size() + 1);
    while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t')) {
      rest.remove_prefix(1);
    }
    int64_t value = 0;
    size_t digits = 0;
    while (digits < rest.size() && rest[digits] >= '0' && rest[digits] <= '9') {
      value = value * 10 + (rest[digits] - '0');
      ++digits;
    }
    if (digits == 0) return std::nullopt;
    rest.remove_prefix(digits);
    while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    if (rest.substr(0, 2) != "kB") return std::nullopt;
    return value;
  }
  return std::nullopt;
}

std::optional<int64_t> ReadStatusKb(std::string_view key) {
  std::ifstream in("/proc/self/status");
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  return ParseStatusKb(text.str(), key);
}

namespace {
constexpr uint32_t kProbeNodes = 65536;
constexpr uint32_t kProbeDegree = 12;
constexpr uint32_t kProbeEvents = 2400;
constexpr size_t kProbeLinkSlots = size_t{1} << 16;  // > events * degree
}  // namespace

HostSpeed::HostSpeed()
    : adjacency_(size_t{kProbeNodes} * kProbeDegree),
      state_(kProbeNodes, 1.0),
      link_keys_(kProbeLinkSlots),
      link_values_(kProbeLinkSlots) {
  events_.reserve(512);
  snapq::Rng rng(0x5eedu);
  for (uint32_t& a : adjacency_) {
    a = static_cast<uint32_t>(rng.NextUint64() % kProbeNodes);
  }
  // Fill the window so the first timed unit has a reference.
  for (size_t i = 0; i < kWindow; ++i) Probe();
}

int64_t HostSpeed::TimeEventQueue() {
  // Allocation-free, so the reading does not depend on the state of the
  // program's heap: the event heap and the open-addressed link table are
  // members, reset in place.
  const int64_t start = NowNs();
  const auto later = [](const Event& a, const Event& b) { return a.t > b.t; };
  events_.clear();
  std::fill(link_keys_.begin(), link_keys_.end(), 0);
  std::fill(link_values_.begin(), link_values_.end(), 0.0);
  const size_t mask = link_keys_.size() - 1;
  snapq::Rng rng(0xe7e27u);
  for (uint32_t i = 0; i < 256; ++i) {
    events_.push_back({rng.NextDouble(), i * 61u % kProbeNodes});
    std::push_heap(events_.begin(), events_.end(), later);
  }
  for (uint32_t e = 0; e < kProbeEvents; ++e) {
    std::pop_heap(events_.begin(), events_.end(), later);
    const Event ev = events_.back();
    events_.pop_back();
    const uint32_t* nb = &adjacency_[size_t{ev.node} * kProbeDegree];
    double acc = 0.0;
    for (uint32_t k = 0; k < kProbeDegree; ++k) {
      state_[nb[k]] = 0.9 * state_[nb[k]] + 0.1 * state_[ev.node];
      acc += state_[nb[k]];
      const uint64_t key = ((uint64_t{ev.node} << 32) | nb[k]) + 1;
      size_t slot = (key * 0x9e3779b97f4a7c15ull) >> 40 & mask;
      while (link_keys_[slot] != 0 && link_keys_[slot] != key) {
        slot = (slot + 1) & mask;
      }
      link_keys_[slot] = key;
      link_values_[slot] += acc;
    }
    events_.push_back({ev.t + rng.NextDouble(),
                       nb[static_cast<uint64_t>(acc) % kProbeDegree]});
    std::push_heap(events_.begin(), events_.end(), later);
  }
  sink_ += static_cast<uint64_t>(events_.front().t + link_values_[0]);
  return NowNs() - start;
}

void HostSpeed::Probe() {
  TimeEventQueue();  // brings the probe's data back into the caches
  Record(static_cast<double>(TimeEventQueue()));
}

void HostSpeed::Record(double reading_ns) {
  readings_.Add(reading_ns);
  window_.push_back(reading_ns);
  if (window_.size() > kWindow) window_.pop_front();
}

double HostSpeed::CurrentNs() const {
  snapq::SampleSet window;
  for (const double reading : window_) window.Add(reading);
  return window.Percentile(50);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

uint64_t DeriveSeed(uint64_t seed, std::string_view stream) {
  return snapq::Rng(seed).SplitNamed(stream).NextUint64();
}

void Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (v >> (8 * i)) & 0xffu;
    hash_ *= 1099511628211ull;
  }
}

void Digest::Add(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
  return buf;
}

int SpanRecorder::Begin(const char* name, int64_t unit) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.unit = unit;
  if (unit < 0 && span.parent >= 0) {
    span.unit = spans_[static_cast<size_t>(span.parent)].unit;
  }
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  // Read the clock last so the bookkeeping above is not charged to the span.
  spans_.back().start_ns = NowNs();
  return id;
}

void SpanRecorder::End(int id) {
  const int64_t now = NowNs();
  spans_[static_cast<size_t>(id)].end_ns = now;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 ",\"parent\":%d,\"unit\":%" PRId64
                 "}\n",
                 i, s.name, s.start_ns, s.end_ns, s.parent, s.unit);
  }
  return std::fclose(out) == 0;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) continue;
    children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;  // everything before `cursor` is already counted
    for (const auto& [start, end] : kids) {
      const int64_t a = std::max(start, cursor);
      const int64_t b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = std::max<int64_t>(0, (hi - lo) - covered);
  }
  return self;
}

std::map<std::string, SpanSummary> SummarizeSpans(
    const std::vector<Span>& spans) {
  std::map<std::string, SpanSummary> out;
  for (const Span& span : spans) {
    SpanSummary& s = out[span.name];
    const double ms = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    s.durations_ms.Add(ms);
    s.total_ms += ms;
  }
  return out;
}

std::string ResultJson(const std::vector<Metric>& metrics,
                       const OkCounter& ok) {
  std::string out = "{\"correct\": ";
  out += ok.failed() == 0 && ok.attempted() > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ok.attempted());
  out += ", \"failed\": " + std::to_string(ok.failed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
