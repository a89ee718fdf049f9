// Ground-truth accuracy auditing: turns the residual between what a
// representative claimed and what the represented sensor actually read
// into first-class telemetry. The paper's bargain (§3) is that a
// representative answers for its members within the error bound T; after
// six PRs of systems observability nothing measured whether that promise
// *holds over time* — QueryRow::model_error surfaces per query via
// EXPLAIN, and the health monitor tracks coverage, not accuracy. The
// auditor closes that gap:
//
//   accuracy.violation_rate   fraction of audited estimates in the current
//                             budget window with d(x, x̂) > effective T;
//   accuracy.budget_burn      violation_rate / kAccuracyErrorBudget — 1.0
//                             means the window's budget is exactly spent;
//   accuracy.max_abs_error    largest |x − x̂| audited since construction;
//   accuracy.mean_abs_error   mean |x − x̂| since construction;
//   accuracy.audited /        cumulative estimates audited / found in
//   accuracy.violations       violation (counters, so the timeseries
//                             engine can trend their rates);
//   accuracy.rounds           audit rounds completed.
//
// Because these are ordinary registry instruments, the existing
// TelemetryRecorder, SLO grammar ("accuracy.violation_rate value <= 0.05
// for 10") and flight-recorder blackbox pick them up with zero new
// plumbing. Each completed round additionally emits one frozen-schema
// `accuracy_audit` journal event.
//
// Layering: obs cannot depend on the model layer, so the auditor ingests
// plain doubles — the caller (the query executor, or the api-level
// sweep) computes the signed error and the metric distance d(x, x̂) and
// passes the effective threshold per round. Per-node attribution reuses
// the registry's fixed-memory LogHistogram; everything is preallocated
// at construction, so BeginRound/ObserveEstimate/EndRound never allocate
// (with the journal disabled) — pinned by the audit allocation test.
//
// This is also ROADMAP item 4(c)'s detection signal: a byzantine or
// faulty representative serving stale/corrupted estimates shows up as a
// per-reporter violation concentration (ReporterViolations).
#ifndef SNAPQ_OBS_ACCURACY_H_
#define SNAPQ_OBS_ACCURACY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/node_id.h"
#include "obs/gauge_pack.h"
#include "obs/journal.h"
#include "obs/metric_registry.h"

namespace snapq::obs {

/// What triggered an audit round.
enum class AuditSource : uint8_t {
  kQuery = 0,  ///< a snapshot-answered query round (ExecutionOptions hook)
  kSweep,      ///< a sampled-tick sweep over the representation state
};
/// Stable name ("query" / "sweep"), used in the journal event.
const char* AuditSourceName(AuditSource source);

/// Fraction of audited estimates per window allowed to exceed the
/// effective threshold. budget_burn = violation_rate / kAccuracyErrorBudget,
/// so an SLO on `accuracy.budget_burn value <= 1` enforces it directly.
inline constexpr double kAccuracyErrorBudget = 0.01;
/// Tumbling budget-window length in sim ticks. Window counters (and the
/// violation_rate / budget_burn gauges) reset when a round starts in a
/// later window.
inline constexpr Time kAccuracyWindow = 100;

/// Cumulative audit aggregate for one node (shell `\accuracy` table and
/// the EXPLAIN ANALYZE "audited" column).
struct AuditNodeStats {
  uint64_t audited = 0;
  uint64_t violations = 0;
  /// Signed error of the most recent audit of this node.
  double last_error = 0.0;
  double mean_abs_error = 0.0;
  double p95_abs_error = 0.0;
  double max_abs_error = 0.0;
};

/// The shadow ground-truth auditor. Feed it rounds:
///
///   auditor.BeginRound(AuditSource::kQuery, sink, effective_t, now);
///   for (each estimated claim)
///     auditor.ObserveEstimate(node, reporter, estimate - truth,
///                             metric.Distance(truth, estimate));
///   auditor.EndRound();  // updates gauges, emits `accuracy_audit`
///
/// Not thread-safe (like the registry): one auditor per simulation.
class AccuracyAuditor {
 public:
  /// Gauges/counters are registered on `registry` immediately and cached;
  /// `journal` (optional) receives one `accuracy_audit` event per round.
  AccuracyAuditor(size_t num_nodes, MetricRegistry* registry,
                  EventJournal* journal = nullptr);

  /// Starts a round audited against `threshold` (the query's effective T).
  /// `origin` is the query sink, or -1 for a sweep. Rolls the budget
  /// window when `t` has moved past it.
  void BeginRound(AuditSource source, int64_t origin, double threshold,
                  Time t);
  /// One estimated answer: representative `reporter` claimed a value for
  /// `node` that is `signed_error` away from ground truth, at metric
  /// distance `distance`. Violation iff distance > the round's threshold.
  /// Must be called between BeginRound and EndRound.
  void ObserveEstimate(NodeId node, NodeId reporter, double signed_error,
                       double distance);
  /// Closes the round: folds it into the counters/gauges and emits the
  /// journal event (one branch when no sink is installed).
  void EndRound();

  // -- Cumulative accessors ---------------------------------------------------
  uint64_t audited_total() const { return audited_; }
  uint64_t violations_total() const { return violations_; }
  uint64_t rounds() const { return rounds_; }
  /// Violations / audited in the current budget window (0 when empty).
  double violation_rate() const;
  /// violation_rate() / kAccuracyErrorBudget.
  double budget_burn() const;
  /// Network-wide |x − x̂| histogram (bucket-exact percentiles).
  const LogHistogram& error_histogram() const { return error_hist_; }
  /// Per-node cumulative stats (one LogHistogram, ~1.7 KB, per node);
  /// zeros when the node was never audited.
  AuditNodeStats NodeStats(NodeId node) const;
  /// Violations attributed to `reporter` across all rounds — the
  /// byzantine-representative detection signal (ROADMAP 4(c)).
  uint64_t ReporterViolations(NodeId reporter) const;
  size_t num_nodes() const { return num_nodes_; }

  /// Per-node error table + network summary (shell `\accuracy`).
  std::string ToTable() const;

 private:
  /// Slots of gauges_ (published by UpdateGauges).
  enum Slot : size_t {
    kViolationRate = 0,
    kBudgetBurn,
    kMaxAbsError,
    kMeanAbsError,
  };

  void UpdateGauges();

  const size_t num_nodes_;
  EventJournal* const journal_;

  // Cached instrument handles (registered at construction; see
  // MetricRegistry's hot-path contract).
  GaugePack gauges_;
  Counter* audited_counter_;
  Counter* violations_counter_;
  Counter* rounds_counter_;

  // Cumulative state.
  LogHistogram error_hist_;
  uint64_t audited_ = 0;
  uint64_t violations_ = 0;
  uint64_t rounds_ = 0;
  std::vector<LogHistogram> node_hist_;
  std::vector<uint64_t> node_violations_;
  std::vector<double> node_last_error_;
  std::vector<uint64_t> reporter_violations_;

  // Tumbling budget window.
  Time window_start_ = 0;
  uint64_t window_audited_ = 0;
  uint64_t window_violations_ = 0;

  // Current round.
  bool in_round_ = false;
  AuditSource round_source_ = AuditSource::kQuery;
  int64_t round_origin_ = -1;
  double round_threshold_ = 0.0;
  Time round_time_ = 0;
  uint64_t round_audited_ = 0;
  uint64_t round_violations_ = 0;
  double round_sum_abs_ = 0.0;
  double round_max_abs_ = 0.0;
};

}  // namespace snapq::obs

#endif  // SNAPQ_OBS_ACCURACY_H_
