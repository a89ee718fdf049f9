#include "query/explain.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "model/error_metric.h"
#include "obs/accuracy.h"
#include "obs/journal.h"
#include "obs/metric_registry.h"
#include "query/parser.h"
#include "query/predicate.h"
#include "snapshot/election.h"

namespace snapq {
namespace {

/// The unbounded fallback region — must match Execute()'s.
constexpr Rect kEverywhere{-1e300, -1e300, 1e300, 1e300};

ExplainCost CostFrom(const QueryProvenance& prov) {
  ExplainCost cost;
  cost.participants = prov.participants;
  cost.responders = prov.responders;
  cost.covered = prov.claims.size();
  cost.messages = prov.messages;
  cost.energy = prov.energy;
  cost.tree_depth = prov.tree_depth;
  return cost;
}

/// Builds the per-node provenance rows from one round's claims. The claim
/// epoch is normalized for display: self-reports carry the internal
/// kQueryClaimSelfEpoch sentinel, which reads back as the node's own
/// election epoch.
std::vector<ExplainNodeRow> BuildRows(
    const std::vector<std::unique_ptr<SnapshotAgent>>& agents,
    const Rect& region, const LinkModel& links, const QueryProvenance& prov,
    const ErrorMetric& metric, double threshold) {
  std::vector<ExplainNodeRow> rows;
  rows.reserve(prov.matching_nodes);
  for (NodeId j = 0; j < agents.size(); ++j) {
    if (!region.Contains(links.position(j))) continue;
    ExplainNodeRow row;
    row.node = j;
    const auto it = prov.claims.find(j);
    if (it == prov.claims.end()) {
      rows.push_back(row);
      continue;
    }
    const QueryClaim& claim = it->second;
    row.reporter = claim.reporter;
    row.covered = true;
    row.estimated = claim.estimated;
    row.epoch = claim.epoch == kQueryClaimSelfEpoch ? agents[j]->epoch()
                                                    : claim.epoch;
    row.value = claim.value;
    if (claim.estimated) {
      const double truth = agents[j]->measurement();
      row.model_error = claim.value - truth;
      row.model_distance = metric.Distance(truth, claim.value);
      row.within_threshold = row.model_distance <= threshold;
    }
    if (claim.reporter < prov.depth.size()) {
      row.depth = prov.depth[claim.reporter];
    }
    rows.push_back(row);
  }
  return rows;
}

std::string Count(size_t v) {
  return StrFormat("%zu", v);
}

std::string YesNo(bool b) { return b ? "yes" : "no"; }

}  // namespace

size_t ExplainReport::EstimatedRows() const {
  size_t n = 0;
  for (const ExplainNodeRow& row : rows) {
    if (row.estimated) ++n;
  }
  return n;
}

double ExplainReport::MaxAbsModelError() const {
  double max_err = 0.0;
  for (const ExplainNodeRow& row : rows) {
    if (row.model_error.has_value()) {
      max_err = std::max(max_err, std::abs(*row.model_error));
    }
  }
  return max_err;
}

std::string ExplainReport::ToString() const {
  std::ostringstream os;
  os << (analyze ? "EXPLAIN ANALYZE" : "EXPLAIN") << "\n";
  os << "query: " << sql << "\n";

  os << "predicate: " << region_source;
  if (region == kEverywhere) {
    os << " -> everywhere";
  } else {
    os << StrFormat(" -> rect [%.2f, %.2f] x [%.2f, %.2f]", region.min_x,
                    region.min_y, region.max_x, region.max_y);
  }
  os << StrFormat("; %zu of %zu nodes match\n", matching_nodes, num_nodes);

  os << "strategy: "
     << (use_snapshot
             ? "snapshot fan-out (representatives answer for members)"
             : "regular fan-out (every matching node responds)")
     << "\n";
  os << StrFormat(
      "  sink=%zu  favor_representatives=%s  passive_nodes_sleep=%s  "
      "charge_energy=%s\n",
      static_cast<size_t>(sink), YesNo(favor_representatives).c_str(),
      YesNo(passive_nodes_sleep).c_str(), YesNo(charge_energy).c_str());

  os << StrFormat("snapshot: %zu active, %zu passive, %zu spurious", active,
                  passive, spurious);
  os << StrFormat("; threshold T=%g (%s%s)\n", threshold, metric.c_str(),
                  threshold_overridden ? ", per-query override" : "");
  os << StrFormat("routing: %zu/%zu nodes reachable from the sink\n",
                  reachable_nodes, num_nodes);
  os << "\n";

  {
    std::vector<std::string> header{"cost", "estimated"};
    if (actual.has_value()) header.push_back("actual");
    TablePrinter t(std::move(header));
    auto add = [&](const char* label, const std::string& est,
                   const std::string& act) {
      std::vector<std::string> row{label, est};
      if (actual.has_value()) row.push_back(act);
      t.AddRow(std::move(row));
    };
    const ExplainCost act = actual.value_or(ExplainCost{});
    add("responders", Count(estimated.responders), Count(act.responders));
    add("participants", Count(estimated.participants),
        Count(act.participants));
    add("messages", Count(estimated.messages), Count(act.messages));
    add("energy", TablePrinter::Num(estimated.energy, 3),
        TablePrinter::Num(act.energy, 3));
    add("tree depth", StrFormat("%d", estimated.tree_depth),
        StrFormat("%d", act.tree_depth));
    add("covered nodes", Count(estimated.covered), Count(act.covered));
    t.Print(os);
    os << "\n";
  }

  if (energy.has_value()) {
    os << StrFormat("energy by cause (ledger): total %s J |",
                    TablePrinter::Num(energy->total, 3).c_str());
    for (size_t c = 0; c < obs::kNumEnergyCauses; ++c) {
      if (energy->by_cause[c] == 0.0) continue;
      os << StrFormat(
          " %s=%s", obs::EnergyCauseName(static_cast<obs::EnergyCause>(c)),
          TablePrinter::Num(energy->by_cause[c], 3).c_str());
    }
    os << "\n\n";
  }

  os << StrFormat("provenance (%zu matching nodes):\n", matching_nodes);
  {
    // The audited columns (the auditor's ground-truth history per node)
    // appear only when a round ran with accuracy auditing enabled, so
    // un-audited reports keep their frozen layout.
    const bool any_audit =
        std::any_of(rows.begin(), rows.end(), [](const ExplainNodeRow& row) {
          return row.audited_mean_error.has_value();
        });
    std::vector<std::string> header{"node",  "reporter", "via",
                                    "epoch", "value",    "error",
                                    "d(x,x^)", "<=T"};
    if (any_audit) {
      header.push_back("audit|e|");
      header.push_back("audit n");
    }
    header.push_back("depth");
    TablePrinter t(std::move(header));
    for (const ExplainNodeRow& row : rows) {
      if (!row.covered) {
        // Uncovered rows stay sparse; TablePrinter pads short rows.
        t.AddRow({StrFormat("%zu", static_cast<size_t>(row.node)), "--",
                  "uncovered"});
        continue;
      }
      std::vector<std::string> cells{
          StrFormat("%zu", static_cast<size_t>(row.node)),
          StrFormat("%zu", static_cast<size_t>(row.reporter)),
          row.estimated ? "estimate" : "self",
          StrFormat("%lld", static_cast<long long>(row.epoch)),
          TablePrinter::Num(row.value, 2),
          row.model_error.has_value() ? TablePrinter::Num(*row.model_error, 2)
                                      : std::string(),
          TablePrinter::Num(row.model_distance, 3),
          YesNo(row.within_threshold)};
      if (any_audit) {
        if (row.audited_mean_error.has_value()) {
          cells.push_back(TablePrinter::Num(*row.audited_mean_error, 3));
          cells.push_back(StrFormat(
              "%llu", static_cast<unsigned long long>(row.audited_count)));
        } else {
          cells.push_back("");
          cells.push_back("");
        }
      }
      cells.push_back(StrFormat("%d", row.depth));
      t.AddRow(std::move(cells));
    }
    t.Print(os);
  }

  if (result.has_value()) {
    os << "\n";
    if (result->aggregate.has_value()) {
      os << StrFormat("answer: %g", *result->aggregate);
      if (result->true_aggregate.has_value()) {
        os << StrFormat(" (ground truth %g)", *result->true_aggregate);
      }
    } else {
      os << StrFormat("answer: %zu rows", result->rows.size());
    }
    os << StrFormat("  coverage %zu/%zu (%.0f%%)\n", result->covered_nodes,
                    result->matching_nodes, result->coverage * 100.0);
  }
  return os.str();
}

Result<ExplainReport> ExplainQuery(QueryExecutor& executor,
                                   const QuerySpec& spec,
                                   const ExecutionOptions& options) {
  SNAPQ_RETURN_IF_ERROR(ValidateColumns(spec, executor.catalog()));
  Result<Rect> region = ResolveRegion(spec, executor.catalog(), kEverywhere);
  if (!region.ok()) return region.status();

  const auto& agents = executor.agents();
  Simulator& sim = executor.sim();

  ExplainReport report;
  {
    // Normalize: the report's `sql` is the statement without the prefix.
    QuerySpec bare = spec;
    bare.explain = ExplainMode::kNone;
    report.sql = bare.ToString();
  }
  report.analyze = spec.explain == ExplainMode::kAnalyze;
  if (spec.region_name.has_value()) {
    report.region_source = "region " + ToUpper(*spec.region_name);
  } else if (spec.region.has_value()) {
    report.region_source = "literal RECT";
  } else {
    report.region_source = "default (everywhere)";
  }
  report.region = *region;
  report.use_snapshot = spec.use_snapshot;
  report.favor_representatives = options.favor_representatives;
  report.passive_nodes_sleep = options.passive_nodes_sleep;
  report.charge_energy = options.charge_energy;
  report.sink = options.sink;
  report.num_nodes = agents.size();

  const SnapshotView snapshot = CaptureSnapshot(sim);
  report.active = snapshot.CountActive();
  report.passive = snapshot.CountPassive();
  report.spurious = snapshot.CountSpurious();

  // The snapshot config is shared across the deployment; an empty network
  // falls back to defaults so the report stays well-formed.
  const SnapshotConfig config =
      agents.empty() ? SnapshotConfig{} : agents.front()->config();
  report.threshold = spec.snapshot_threshold.value_or(config.threshold);
  report.threshold_overridden = spec.snapshot_threshold.has_value();
  report.metric = ErrorMetricKindName(config.metric.kind());

  // Plan: side-effect free — nothing transmitted, charged or journaled.
  ExecutionOptions plan_options = options;
  plan_options.provenance = nullptr;
  const QueryProvenance plan =
      executor.PlanRegion(*region, spec.use_snapshot, plan_options);
  report.matching_nodes = plan.matching_nodes;
  report.reachable_nodes = plan.reachable_nodes;
  report.estimated = CostFrom(plan);

  obs::MetricRegistry& reg = sim.registry();
  reg.GetCounter("explain.plans")->Inc();

  const QueryProvenance* rows_source = &plan;
  QueryProvenance actual;
  if (report.analyze) {
    ExecutionOptions run_options = options;
    run_options.provenance = &actual;
    // The audited round is judged against the same effective T the report
    // displays (the per-query override when present).
    run_options.audit_threshold = report.threshold;
    // With an energy ledger attached, bracket the execution with per-cause
    // totals: the delta is this query's own drain — protocol messages it
    // induced included, not just the executor's aggregate charge.
    obs::EnergyLedger* ledger = sim.energy_ledger();
    std::array<double, obs::kNumEnergyCauses> before{};
    if (ledger != nullptr) {
      for (size_t c = 0; c < obs::kNumEnergyCauses; ++c) {
        before[c] = ledger->CauseJoules(static_cast<obs::EnergyCause>(c));
      }
    }
    report.result = executor.ExecuteRegion(*region, spec.use_snapshot,
                                           spec.TheAggregate(), run_options);
    if (ledger != nullptr) {
      ExplainEnergyBreakdown breakdown;
      for (size_t c = 0; c < obs::kNumEnergyCauses; ++c) {
        breakdown.by_cause[c] =
            ledger->CauseJoules(static_cast<obs::EnergyCause>(c)) - before[c];
        breakdown.total += breakdown.by_cause[c];
      }
      report.energy = breakdown;
    }
    report.actual = CostFrom(actual);
    rows_source = &actual;
  }

  report.rows =
      BuildRows(agents, *region, sim.links(), *rows_source, config.metric,
                report.threshold);

  if (options.audit != nullptr) {
    // Join the auditor's per-node ground-truth history onto the rows: the
    // "audited actual error" column next to the model's claimed error.
    // Under ANALYZE the execution above already audited this round.
    for (ExplainNodeRow& row : report.rows) {
      const obs::AuditNodeStats stats = options.audit->NodeStats(row.node);
      if (stats.audited == 0) continue;
      row.audited_count = stats.audited;
      row.audited_mean_error = stats.mean_abs_error;
    }
  }

  if (report.analyze) {
    reg.GetCounter("explain.analyze.runs")->Inc();
    const double est_p = static_cast<double>(report.estimated.participants);
    const double act_p = static_cast<double>(report.actual->participants);
    reg.GetHistogram("explain.participant_delta")
        ->Observe(std::abs(est_p - act_p));
    const double pct =
        act_p == 0.0 ? (est_p == 0.0 ? 0.0 : 100.0)
                     : std::abs(est_p - act_p) / act_p * 100.0;
    reg.GetHistogram("explain.estimate_error_pct")->Observe(pct);

    const double max_abs_error = report.MaxAbsModelError();
    const size_t estimated_rows = report.EstimatedRows();
    sim.journal().Emit(
        "query_explain", sim.now(), [&](obs::JournalEvent& e) {
          e.Node(report.sink)
              .Bool("use_snapshot", report.use_snapshot)
              .Int("matching", static_cast<int64_t>(report.matching_nodes))
              .Int("covered", static_cast<int64_t>(report.actual->covered))
              .Int("estimated_rows", static_cast<int64_t>(estimated_rows))
              .Int("est_participants",
                   static_cast<int64_t>(report.estimated.participants))
              .Int("act_participants",
                   static_cast<int64_t>(report.actual->participants))
              .Int("est_messages",
                   static_cast<int64_t>(report.estimated.messages))
              .Int("act_messages",
                   static_cast<int64_t>(report.actual->messages))
              .Num("est_energy", report.estimated.energy)
              .Num("act_energy", report.actual->energy)
              .Int("tree_depth", report.actual->tree_depth)
              .Num("threshold", report.threshold)
              .Num("max_abs_error", max_abs_error);
        });
  }
  return report;
}

Result<ExplainReport> ExplainSql(QueryExecutor& executor,
                                 const std::string& sql,
                                 const ExecutionOptions& options) {
  Result<QuerySpec> spec = ParseQuery(sql);
  if (!spec.ok()) return spec.status();
  return ExplainQuery(executor, *spec, options);
}

}  // namespace snapq
