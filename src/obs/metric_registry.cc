#include "obs/metric_registry.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "obs/json.h"

namespace snapq::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {
  SNAPQ_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::Observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++buckets_[static_cast<size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += x;
  if (count_ == 1 || x > max_) max_ = x;
}

void Histogram::MergeFrom(const Histogram& other) {
  SNAPQ_CHECK(bounds_ == other.bounds_);
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.count_ > 0) max_ = std::max(max_, other.max_);
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
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

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        std::vector<double> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return &it->second;
  return &histograms_.try_emplace(name, Histogram(std::move(bounds)))
              .first->second;
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
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      Histogram copy(h.bounds());
      copy.MergeFrom(h);
      histograms_.try_emplace(name, std::move(copy));
    } else {
      it->second.MergeFrom(h);
    }
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
    body += ",\"bounds\":[";
    for (size_t i = 0; i < h.bounds().size(); ++i) {
      if (i > 0) body += ',';
      body += JsonNumber(h.bounds()[i]);
    }
    body += "],\"buckets\":[";
    for (size_t i = 0; i < h.buckets().size(); ++i) {
      if (i > 0) body += ',';
      body += JsonNumber(static_cast<double>(h.buckets()[i]));
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
    for (size_t i = 0; i < h.buckets().size(); ++i) {
      const std::string le =
          i < h.bounds().size() ? JsonNumber(h.bounds()[i]) : "inf";
      out += StrFormat("histogram_bucket,%s{le=%s},%llu\n", name.c_str(),
                       le.c_str(),
                       static_cast<unsigned long long>(h.buckets()[i]));
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
