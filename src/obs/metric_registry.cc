#include "obs/metric_registry.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "obs/json.h"

namespace snapq::obs {

int LogHistogram::BucketIndex(double v) {
  if (!(v > 0.0) || std::isnan(v)) return 0;  // 0, negatives, NaN
  int exp = 0;
  const double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  // v lies in the octave [2^(exp-1), 2^exp); quarter it by mantissa.
  const int sub = std::min(kSubBuckets - 1,
                           static_cast<int>((m - 0.5) * 2.0 * kSubBuckets));
  const int index = (exp - 1 - kMinExp) * kSubBuckets + sub + 1;
  return std::clamp(index, 0, kNumBuckets - 1);
}

double LogHistogram::BucketLowerBound(int index) {
  if (index <= 0) return 0.0;
  return std::exp2(kMinExp + static_cast<double>(index - 1) / kSubBuckets);
}

double LogHistogram::BucketUpperBound(int index) {
  return std::exp2(kMinExp + static_cast<double>(index) / kSubBuckets);
}

void LogHistogram::Observe(double v) {
  if (std::isnan(v)) v = 0.0;
  v = std::max(v, 0.0);
  ++buckets_[static_cast<size_t>(BucketIndex(v))];
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

double LogHistogram::Percentile(double pct) const {
  if (count_ == 0) return 0.0;
  pct = std::clamp(pct, 0.0, 100.0);
  if (pct >= 100.0) return max_;
  const double target =
      std::max(1.0, std::ceil(pct / 100.0 * static_cast<double>(count_)));
  uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t in_bucket = buckets_[static_cast<size_t>(i)];
    if (in_bucket == 0) continue;
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) >= target) {
      const double before = static_cast<double>(cumulative - in_bucket);
      const double fraction =
          (target - before) / static_cast<double>(in_bucket);
      const double lower = BucketLowerBound(i);
      const double upper = BucketUpperBound(i);
      return std::clamp(lower + fraction * (upper - lower), min_, max_);
    }
  }
  return max_;  // unreachable: counts always sum to count_
}

void LogHistogram::MergeFrom(const LogHistogram& other) {
  if (other.count_ == 0) return;
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void LogHistogram::Reset() {
  buckets_.fill(0);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

std::string LabeledName(const std::string& name, NodeId node) {
  return StrFormat("%s{node=%u}", name.c_str(), node);
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  return &counters_[name];
}

Counter* MetricRegistry::GetCounter(const std::string& name, NodeId node) {
  return &node_counters_[name][node];
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  return &gauges_[name];
}

Gauge* MetricRegistry::GetGauge(const std::string& name, NodeId node) {
  return &node_gauges_[name][node];
}

LogHistogram* MetricRegistry::GetHistogram(const std::string& name) {
  return &histograms_[name];
}

void MetricRegistry::MergeFrom(const MetricRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counters_[name].Inc(c.value());
  }
  for (const auto& [name, per_node] : other.node_counters_) {
    auto& mine = node_counters_[name];
    for (const auto& [node, c] : per_node) {
      mine[node].Inc(c.value());
    }
  }
  for (const auto& [name, g] : other.gauges_) {
    gauges_[name].SetMax(g.value());
  }
  for (const auto& [name, per_node] : other.node_gauges_) {
    auto& mine = node_gauges_[name];
    for (const auto& [node, g] : per_node) {
      mine[node].SetMax(g.value());
    }
  }
  for (const auto& [name, h] : other.histograms_) {
    histograms_[name].MergeFrom(h);
  }
}

void MetricRegistry::Reset() {
  for (auto& [name, c] : counters_) c.Reset();
  for (auto& [name, per_node] : node_counters_) {
    for (auto& [node, c] : per_node) c.Reset();
  }
  for (auto& [name, g] : gauges_) g.Reset();
  for (auto& [name, per_node] : node_gauges_) {
    for (auto& [node, g] : per_node) g.Reset();
  }
  for (auto& [name, h] : histograms_) h.Reset();
}

size_t MetricRegistry::num_instruments() const {
  size_t n = counters_.size() + gauges_.size() + histograms_.size();
  for (const auto& [name, per_node] : node_counters_) n += per_node.size();
  for (const auto& [name, per_node] : node_gauges_) n += per_node.size();
  return n;
}

namespace {

void AppendEntry(std::string* out, bool* first, const std::string& key,
                 const std::string& value) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  *out += JsonEscape(key);
  *out += "\":";
  *out += value;
}

}  // namespace

std::string MetricRegistry::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    AppendEntry(&out, &first, name,
                JsonNumber(static_cast<double>(c.value())));
  }
  for (const auto& [name, per_node] : node_counters_) {
    for (const auto& [node, c] : per_node) {
      AppendEntry(&out, &first, LabeledName(name, node),
                  JsonNumber(static_cast<double>(c.value())));
    }
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    AppendEntry(&out, &first, name, JsonNumber(g.value()));
  }
  for (const auto& [name, per_node] : node_gauges_) {
    for (const auto& [node, g] : per_node) {
      AppendEntry(&out, &first, LabeledName(name, node),
                  JsonNumber(g.value()));
    }
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    std::string body = "{\"count\":";
    body += JsonNumber(static_cast<double>(h.count()));
    body += ",\"sum\":";
    body += JsonNumber(h.sum());
    body += ",\"max\":";
    body += JsonNumber(h.max_seen());
    body += ",\"buckets\":[";
    for (int i = 0; i < LogHistogram::kNumBuckets; ++i) {
      const uint64_t n = h.buckets()[static_cast<size_t>(i)];
      if (n == 0) continue;
      if (body.back() != '[') body += ',';
      body += '[';
      body += JsonNumber(LogHistogram::BucketLowerBound(i));
      body += ',';
      body += JsonNumber(LogHistogram::BucketUpperBound(i));
      body += ',';
      body += JsonNumber(static_cast<double>(n));
      body += ']';
    }
    body += "]}";
    AppendEntry(&out, &first, name, body);
  }
  out += "}}";
  return out;
}

std::string MetricRegistry::ToCsv() const {
  std::string out = "kind,name,value\n";
  for (const auto& [name, c] : counters_) {
    out += StrFormat("counter,%s,%llu\n", name.c_str(),
                     static_cast<unsigned long long>(c.value()));
  }
  for (const auto& [name, per_node] : node_counters_) {
    for (const auto& [node, c] : per_node) {
      out += StrFormat("counter,%s,%llu\n",
                       LabeledName(name, node).c_str(),
                       static_cast<unsigned long long>(c.value()));
    }
  }
  for (const auto& [name, g] : gauges_) {
    out += StrFormat("gauge,%s,%s\n", name.c_str(),
                     JsonNumber(g.value()).c_str());
  }
  for (const auto& [name, per_node] : node_gauges_) {
    for (const auto& [node, g] : per_node) {
      out += StrFormat("gauge,%s,%s\n", LabeledName(name, node).c_str(),
                       JsonNumber(g.value()).c_str());
    }
  }
  for (const auto& [name, h] : histograms_) {
    out += StrFormat("histogram_count,%s,%llu\n", name.c_str(),
                     static_cast<unsigned long long>(h.count()));
    out += StrFormat("histogram_sum,%s,%s\n", name.c_str(),
                     JsonNumber(h.sum()).c_str());
    out += StrFormat("histogram_max,%s,%s\n", name.c_str(),
                     JsonNumber(h.max_seen()).c_str());
    for (int i = 0; i < LogHistogram::kNumBuckets; ++i) {
      const uint64_t n = h.buckets()[static_cast<size_t>(i)];
      if (n == 0) continue;
      out += StrFormat(
          "histogram_bucket,%s{ge=%s;lt=%s},%llu\n", name.c_str(),
          JsonNumber(LogHistogram::BucketLowerBound(i)).c_str(),
          JsonNumber(LogHistogram::BucketUpperBound(i)).c_str(),
          static_cast<unsigned long long>(n));
    }
  }
  return out;
}

MetricRegistry& GlobalMetrics() {
  static MetricRegistry* registry = new MetricRegistry();
  return *registry;
}

namespace {
thread_local MetricRegistry* t_metric_sink = nullptr;
}  // namespace

MetricRegistry& MetricSink() {
  return t_metric_sink != nullptr ? *t_metric_sink : GlobalMetrics();
}

ScopedMetricSink::ScopedMetricSink(MetricRegistry* sink)
    : saved_(t_metric_sink) {
  t_metric_sink = sink;
}

ScopedMetricSink::~ScopedMetricSink() { t_metric_sink = saved_; }

}  // namespace snapq::obs
