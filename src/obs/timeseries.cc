#include "obs/timeseries.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/check.h"

namespace snapq::obs {

void SeriesBin::Merge(const SeriesBin& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  t_first = std::min(t_first, other.t_first);
  t_last = std::max(t_last, other.t_last);
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  sum += other.sum;
  count += other.count;
}

TimeSeries::TimeSeries()
    : raw_(kSeriesRawCapacity),
      hist_(kSeriesHistoryCapacity),
      hist_slots_(kSeriesHistoryCapacity, 0) {}

void TimeSeries::Push(Time t, double value) {
  if (num_samples_ == 0) {
    ewma_ = value;
    min_ = value;
    max_ = value;
  } else {
    ewma_ += kSeriesEwmaAlpha * (value - ewma_);
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  sum_ += value;
  last_ = value;
  last_time_ = t;
  ++num_samples_;

  if (raw_size_ == raw_.size()) EvictOldestRaw();
  raw_[(raw_start_ + raw_size_) % raw_.size()] = SeriesBin::FromSample(t, value);
  ++raw_size_;
}

void TimeSeries::EvictOldestRaw() {
  const SeriesBin oldest = raw_[raw_start_];
  raw_start_ = (raw_start_ + 1) % raw_.size();
  --raw_size_;

  if (hist_size_ > 0) {
    const size_t tail = hist_size_ - 1;
    if (hist_slots_[(hist_start_ + tail) % hist_.size()] < bin_stride_) {
      HistAt(tail).Merge(oldest);
      ++hist_slots_[(hist_start_ + tail) % hist_.size()];
      return;
    }
  }
  if (hist_size_ == hist_.size()) {
    CompactHistory();
    // Compaction doubled the stride, so the (possibly merged) tail bin now
    // has room — except when two exactly-full bins merged into one
    // exactly-full bin, in which case size halved and appending fits.
    const size_t tail = hist_size_ - 1;
    if (hist_slots_[(hist_start_ + tail) % hist_.size()] < bin_stride_) {
      HistAt(tail).Merge(oldest);
      ++hist_slots_[(hist_start_ + tail) % hist_.size()];
      return;
    }
  }
  SNAPQ_CHECK_LT(hist_size_, hist_.size());
  const size_t slot = (hist_start_ + hist_size_) % hist_.size();
  hist_[slot] = oldest;
  hist_slots_[slot] = 1;
  ++hist_size_;
}

void TimeSeries::CompactHistory() {
  // Normalize the ring so pairwise merging can run linearly in place.
  std::rotate(hist_.begin(), hist_.begin() + static_cast<long>(hist_start_),
              hist_.end());
  std::rotate(hist_slots_.begin(),
              hist_slots_.begin() + static_cast<long>(hist_start_),
              hist_slots_.end());
  hist_start_ = 0;
  const size_t new_size = (hist_size_ + 1) / 2;
  for (size_t i = 0; i < new_size; ++i) {
    SeriesBin merged = hist_[2 * i];
    uint32_t slots = hist_slots_[2 * i];
    if (2 * i + 1 < hist_size_) {
      merged.Merge(hist_[2 * i + 1]);
      slots += hist_slots_[2 * i + 1];
    }
    hist_[i] = merged;
    hist_slots_[i] = slots;
  }
  hist_size_ = new_size;
  bin_stride_ *= 2;
}

const SeriesBin& TimeSeries::bin(size_t i) const {
  SNAPQ_CHECK_LT(i, num_bins());
  if (i < hist_size_) return HistAt(i);
  return raw_[(raw_start_ + (i - hist_size_)) % raw_.size()];
}

Time TimeSeries::retained_since() const {
  return num_bins() == 0 ? 0 : bin(0).t_first;
}

double TimeSeries::Slope() const {
  const size_t n = num_bins();
  if (n < 2) return 0.0;
  // Least squares of bin mean against bin mid-time.
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const SeriesBin& b = bin(i);
    const double x = 0.5 * (static_cast<double>(b.t_first) +
                            static_cast<double>(b.t_last));
    const double y = b.mean();
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double dn = static_cast<double>(n);
  const double denom = dn * sxx - sx * sx;
  if (denom == 0.0) return 0.0;
  return (dn * sxy - sx * sy) / denom;
}

TelemetryRecorder::TelemetryRecorder(const TelemetryConfig& config,
                                     MetricRegistry* registry)
    : config_(config), registry_(registry) {
  SNAPQ_CHECK_GT(config.sample_interval, 0);
  probes_.reserve(kMaxTelemetrySeries);
  const long page = ::sysconf(_SC_PAGESIZE);
  page_kb_ = page > 0 ? static_cast<double>(page) / 1024.0 : 4.0;
}

TelemetryRecorder::~TelemetryRecorder() {
  if (statm_fd_ >= 0) ::close(statm_fd_);
}

TimeSeries* TelemetryRecorder::AddProbe(Probe probe) {
  for (Probe& existing : probes_) {
    if (existing.name == probe.name) return &existing.series;
  }
  // Reallocation would invalidate the series pointers already handed out.
  SNAPQ_CHECK_LT(probes_.size(), kMaxTelemetrySeries);
  probes_.push_back(std::move(probe));
  return &probes_.back().series;
}

TimeSeries* TelemetryRecorder::TrackGauge(const std::string& name) {
  Probe probe;
  probe.name = name;
  probe.kind = Probe::Kind::kGauge;
  probe.gauge = registry_->GetGauge(name);
  return AddProbe(std::move(probe));
}

TimeSeries* TelemetryRecorder::TrackCounterRate(const std::string& name) {
  Probe probe;
  probe.name = name + ".rate";
  probe.kind = Probe::Kind::kCounterRate;
  probe.counter = registry_->GetCounter(name);
  return AddProbe(std::move(probe));
}

TimeSeries* TelemetryRecorder::TrackRss() {
  Probe probe;
  probe.name = "proc.rss_kb";
  probe.kind = Probe::Kind::kRss;
  if (statm_fd_ < 0) {
    statm_fd_ = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  }
  return AddProbe(std::move(probe));
}

double TelemetryRecorder::ReadRssKb() const {
  if (statm_fd_ >= 0) {
    char buf[128];
    const ssize_t n = ::pread(statm_fd_, buf, sizeof(buf) - 1, 0);
    if (n > 0) {
      buf[n] = '\0';
      // statm: size resident shared text lib data dt (pages).
      char* end = nullptr;
      (void)std::strtol(buf, &end, 10);  // size
      const long resident = std::strtol(end, &end, 10);
      if (resident > 0) return static_cast<double>(resident) * page_kb_;
    }
  }
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) == 0) {
    return static_cast<double>(usage.ru_maxrss);  // already KB on Linux
  }
  return 0.0;
}

void TelemetryRecorder::SampleNow(Time t) {
  for (Probe& probe : probes_) {
    double value = 0.0;
    switch (probe.kind) {
      case Probe::Kind::kGauge:
        value = probe.gauge->value();
        break;
      case Probe::Kind::kCounterRate: {
        const uint64_t cur = probe.counter->value();
        // A counter reset (warm restart, registry Reset) would make the
        // delta wrap; clamp to a flat interval instead.
        value = cur >= probe.prev
                    ? static_cast<double>(cur - probe.prev)
                    : 0.0;
        probe.prev = cur;
        break;
      }
      case Probe::Kind::kRss:
        value = ReadRssKb();
        break;
    }
    probe.series.Push(t, value);
  }
  ++num_samples_;
}

const TimeSeries* TelemetryRecorder::series(std::string_view name) const {
  for (const Probe& probe : probes_) {
    if (probe.name == name) return &probe.series;
  }
  return nullptr;
}

}  // namespace snapq::obs
