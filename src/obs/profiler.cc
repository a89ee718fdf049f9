#include "obs/profiler.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/table_printer.h"

namespace snapq::obs {

std::atomic<Profiler*> Profiler::active_{nullptr};

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

const char* HotOpName(HotOp op) {
  switch (op) {
    case HotOp::kMessagesSent:
      return "messages_sent";
    case HotOp::kMessagesDelivered:
      return "messages_delivered";
    case HotOp::kMessagesSnooped:
      return "messages_snooped";
    case HotOp::kCacheOps:
      return "cache_ops";
    case HotOp::kModelFits:
      return "model_fits";
    case HotOp::kElectionRounds:
      return "election_rounds";
    case HotOp::kMaintenanceRounds:
      return "maintenance_rounds";
    case HotOp::kQueriesExecuted:
      return "queries_executed";
    case HotOp::kCount:
      break;
  }
  return "unknown";
}

Profiler& Profiler::Global() {
  static Profiler instance;
  return instance;
}

double Profiler::ElapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

double Profiler::Rate(HotOp op) const {
  const double seconds = ElapsedSeconds();
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(count(op)) / seconds;
}

void Profiler::Reset() {
  for (std::atomic<uint64_t>& c : counters_) {
    c.store(0, std::memory_order_relaxed);
  }
  epoch_ = std::chrono::steady_clock::now();
}

std::string Profiler::ToTable() const {
  std::ostringstream out;
  const double seconds = ElapsedSeconds();
  out << "hot-path counters (" << TablePrinter::Num(seconds, 1)
      << "s since reset):\n";
  TablePrinter counters({"operation", "count", "per second"});
  for (size_t i = 0; i < kNumHotOps; ++i) {
    const HotOp op = static_cast<HotOp>(i);
    counters.AddRow({HotOpName(op), std::to_string(count(op)),
                     TablePrinter::Num(Rate(op), 1)});
  }
  counters.Print(out);
  return out.str();
}

}  // namespace snapq::obs
