#include "obs/accuracy.h"

#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/string_util.h"
#include "common/table_printer.h"

namespace snapq::obs {

const char* AuditSourceName(AuditSource source) {
  switch (source) {
    case AuditSource::kQuery:
      return "query";
    case AuditSource::kSweep:
      return "sweep";
  }
  return "?";
}

AccuracyAuditor::AccuracyAuditor(size_t num_nodes, MetricRegistry* registry,
                                 EventJournal* journal)
    : num_nodes_(num_nodes),
      journal_(journal),
      gauges_(registry,
              {"accuracy.violation_rate", "accuracy.budget_burn",
               "accuracy.max_abs_error", "accuracy.mean_abs_error"}),
      audited_counter_(registry->GetCounter("accuracy.audited")),
      violations_counter_(registry->GetCounter("accuracy.violations")),
      rounds_counter_(registry->GetCounter("accuracy.rounds")),
      node_hist_(num_nodes),
      node_violations_(num_nodes, 0),
      node_last_error_(num_nodes, 0.0),
      reporter_violations_(num_nodes, 0) {}

void AccuracyAuditor::BeginRound(AuditSource source, int64_t origin,
                                 double threshold, Time t) {
  SNAPQ_CHECK(!in_round_);
  if (t >= window_start_ + kAccuracyWindow) {
    // Tumble: realign the window grid to cover `t` and reset its counters.
    window_start_ += ((t - window_start_) / kAccuracyWindow) * kAccuracyWindow;
    window_audited_ = 0;
    window_violations_ = 0;
  }
  in_round_ = true;
  round_source_ = source;
  round_origin_ = origin;
  round_threshold_ = threshold;
  round_time_ = t;
  round_audited_ = 0;
  round_violations_ = 0;
  round_sum_abs_ = 0.0;
  round_max_abs_ = 0.0;
}

void AccuracyAuditor::ObserveEstimate(NodeId node, NodeId reporter,
                                      double signed_error, double distance) {
  SNAPQ_CHECK(in_round_);
  const double abs_error = std::abs(signed_error);
  error_hist_.Observe(abs_error);
  ++round_audited_;
  round_sum_abs_ += abs_error;
  if (abs_error > round_max_abs_) round_max_abs_ = abs_error;
  const bool violation = distance > round_threshold_;
  if (violation) {
    ++round_violations_;
    if (reporter < reporter_violations_.size()) {
      ++reporter_violations_[reporter];
    }
  }
  if (node < node_hist_.size()) {
    node_hist_[node].Observe(abs_error);
    node_last_error_[node] = signed_error;
    if (violation) ++node_violations_[node];
  }
}

void AccuracyAuditor::EndRound() {
  SNAPQ_CHECK(in_round_);
  in_round_ = false;
  audited_ += round_audited_;
  violations_ += round_violations_;
  ++rounds_;
  window_audited_ += round_audited_;
  window_violations_ += round_violations_;
  audited_counter_->Inc(round_audited_);
  violations_counter_->Inc(round_violations_);
  rounds_counter_->Inc();
  UpdateGauges();
  if (journal_ == nullptr) return;
  journal_->Emit("accuracy_audit", round_time_, [&](JournalEvent& e) {
    const double mean_abs =
        round_audited_ == 0
            ? 0.0
            : round_sum_abs_ / static_cast<double>(round_audited_);
    e.Int("node", round_origin_)
        .Str("source", AuditSourceName(round_source_))
        .Num("threshold", round_threshold_)
        .Int("audited", static_cast<int64_t>(round_audited_))
        .Int("violations", static_cast<int64_t>(round_violations_))
        .Num("max_abs_error", round_max_abs_)
        .Num("mean_abs_error", mean_abs)
        .Num("violation_rate", violation_rate())
        .Num("budget_burn", budget_burn());
  });
}

double AccuracyAuditor::violation_rate() const {
  return window_audited_ == 0
             ? 0.0
             : static_cast<double>(window_violations_) /
                   static_cast<double>(window_audited_);
}

double AccuracyAuditor::budget_burn() const {
  return violation_rate() / kAccuracyErrorBudget;
}

void AccuracyAuditor::UpdateGauges() {
  gauges_.Set(kViolationRate, violation_rate());
  gauges_.Set(kBudgetBurn, budget_burn());
  gauges_.Set(kMaxAbsError, error_hist_.max_seen());
  gauges_.Set(kMeanAbsError, error_hist_.mean());
}

AuditNodeStats AccuracyAuditor::NodeStats(NodeId node) const {
  AuditNodeStats stats;
  if (node >= node_hist_.size()) return stats;
  const LogHistogram& hist = node_hist_[node];
  stats.audited = hist.count();
  stats.violations = node_violations_[node];
  stats.last_error = node_last_error_[node];
  stats.mean_abs_error = hist.mean();
  stats.p95_abs_error = hist.Percentile(95.0);
  stats.max_abs_error = hist.max_seen();
  return stats;
}

uint64_t AccuracyAuditor::ReporterViolations(NodeId reporter) const {
  return reporter < reporter_violations_.size()
             ? reporter_violations_[reporter]
             : 0;
}

std::string AccuracyAuditor::ToTable() const {
  std::ostringstream os;
  TablePrinter table(
      {"node", "audited", "viol", "last e", "mean|e|", "p95|e|", "max|e|"});
  for (NodeId i = 0; i < node_hist_.size(); ++i) {
    const AuditNodeStats stats = NodeStats(i);
    if (stats.audited == 0) continue;
    table.AddRow({StrFormat("%zu", static_cast<size_t>(i)),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        stats.audited)),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        stats.violations)),
                  TablePrinter::Num(stats.last_error, 4),
                  TablePrinter::Num(stats.mean_abs_error, 4),
                  TablePrinter::Num(stats.p95_abs_error, 4),
                  TablePrinter::Num(stats.max_abs_error, 4)});
  }
  if (table.row_count() == 0) {
    os << "accuracy: nothing audited yet\n";
  } else {
    table.Print(os);
  }
  os << StrFormat(
      "-- %llu audited, %llu violations over %llu rounds; "
      "window violation rate %.4g (budget %.4g, burn %.4g)\n",
      static_cast<unsigned long long>(audited_),
      static_cast<unsigned long long>(violations_),
      static_cast<unsigned long long>(rounds_), violation_rate(),
      kAccuracyErrorBudget, budget_burn());
  return os.str();
}

}  // namespace snapq::obs
