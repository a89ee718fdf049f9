// Accuracy audit: ground-truth error-budget telemetry for snapshot
// answers, swept across message loss x threshold T. Each cell runs the
// standard §6.1 weather pipeline with the accuracy auditor enabled, in
// two phases:
//
//  * discovery — data frozen, right after representative discovery: one
//    USE SNAPSHOT query round (the per-query hook) plus a representation
//    sweep (AuditSnapshotNow). Invariant gate: discovery only elects
//    representations it verified against T, so with ZERO loss no estimate
//    may violate its bound — any lossless discovery violation fails the
//    run (exit code 1). CI's perf-smoke job leans on that as a
//    correctness gate, not a perf signal.
//  * drift — the readings then random-walk away for a post-discovery
//    window while maintenance rounds repair violated models; every tick
//    is sweep-audited. Violations here measure how long stale estimates
//    linger: tighter T violates sooner, higher loss delays the repair
//    traffic, so the violation rate climbs with both.
//
// The table reports the measured |x - x^| error CDF and both phases'
// violation counts per cell; the `.accuracy.json` sidecar carries the
// same numbers for CI and EXPERIMENTS.md.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "bench_util.h"
#include "common/table_printer.h"
#include "obs/accuracy.h"
#include "obs/json.h"
#include "obs/metric_registry.h"

namespace {

using namespace snapq;

constexpr Time kDriftTicks = 100;       // post-discovery audit window
constexpr Time kMaintInterval = 25;     // repair rounds during the drift
constexpr double kDriftStep = 0.05;     // per-tick random-walk stddev

/// Folded audit results of one (loss, T) cell across all seeds.
struct CellResult {
  double loss = 0.0;
  double threshold = 0.0;
  // Discovery phase (frozen data): the lossless-gate numbers.
  uint64_t discovery_audited = 0;
  uint64_t discovery_violations = 0;
  // Both phases together.
  uint64_t audited = 0;
  uint64_t violations = 0;
  obs::LogHistogram errors;  // |x - x^| across every audited estimate

  double violation_rate() const {
    return audited == 0 ? 0.0 : static_cast<double>(violations) /
                                    static_cast<double>(audited);
  }
};

std::string CellsToJson(const std::vector<CellResult>& cells,
                        const std::string& name, int repetitions,
                        bool quick) {
  using obs::JsonNumber;
  std::string out = "{\"schema_version\": 1";
  out += ", \"kind\": \"snapq-accuracy\"";
  out += ", \"benchmark\": \"" + obs::JsonEscape(name) + "\"";
  out += ", \"repetitions\": " + std::to_string(repetitions);
  out += std::string(", \"quick\": ") + (quick ? "true" : "false");
  out += ", \"error_budget\": " + JsonNumber(obs::kAccuracyErrorBudget);
  out += ", \"cells\": [";
  bool first = true;
  for (const CellResult& c : cells) {
    if (!first) out += ", ";
    first = false;
    out += "{\"loss\": " + JsonNumber(c.loss);
    out += ", \"threshold\": " + JsonNumber(c.threshold);
    out += ", \"audited\": " + std::to_string(c.audited);
    out += ", \"violations\": " + std::to_string(c.violations);
    out += ", \"violation_rate\": " + JsonNumber(c.violation_rate());
    out += ", \"budget_burn\": " +
           JsonNumber(c.violation_rate() / obs::kAccuracyErrorBudget);
    out += ", \"discovery_audited\": " + std::to_string(c.discovery_audited);
    out +=
        ", \"discovery_violations\": " + std::to_string(c.discovery_violations);
    out += ", \"error_p50\": " + JsonNumber(c.errors.Percentile(50.0));
    out += ", \"error_p90\": " + JsonNumber(c.errors.Percentile(90.0));
    out += ", \"error_p99\": " + JsonNumber(c.errors.Percentile(99.0));
    out += ", \"error_max\": " + JsonNumber(c.errors.max_seen());
    out += ", \"error_mean\": " + JsonNumber(c.errors.mean()) + "}";
  }
  out += "]}\n";
  return out;
}

}  // namespace

SNAPQ_BENCHMARK(accuracy_audit,
                "Accuracy audit: ground-truth error CDF and bound "
                "violation rate vs loss and T") {
  bench::Driver driver(
      ctx,
      "Accuracy audit: measured estimate error vs the promised bound T",
      "weather workload, N=100; frozen discovery audit (query round + "
      "representation sweep), then a drifting window with maintenance "
      "repairs, sweep-audited every tick");

  const Time drift_ticks = ctx.Scaled(kDriftTicks);
  std::vector<CellResult> cells;
  bool lossless_violation = false;

  TablePrinter table({"loss", "T", "audited", "viol@disc", "viol",
                      "viol rate", "burn", "p50|e|", "p99|e|", "max|e|"});
  for (double loss : {0.0, 0.05, 0.1, 0.2}) {
    for (double t : {0.1, 1.0, 10.0}) {
      CellResult cell;
      cell.loss = loss;
      cell.threshold = t;
      // Serial over seeds: every estimate's |error| folds into one
      // histogram per cell, so the sidecar is bit-identical for any
      // --jobs value (the perf-smoke determinism gate diffs it).
      for (int rep = 0; rep < ctx.repetitions; ++rep) {
        const uint64_t seed = bench::kBaseSeed + static_cast<uint64_t>(rep);
        SensitivityConfig config;
        config.workload = WorkloadKind::kWeather;
        config.threshold = t;
        config.loss_probability = loss;
        config.seed = seed;
        SensitivityOutcome outcome = RunSensitivityTrial(config);
        SensorNetwork& net = *outcome.network;
        obs::AccuracyAuditor& audit = net.EnableAccuracyAudit();

        // Phase 1 (frozen data): the query-path hook, then the sweep.
        (void)net.Query("SELECT avg(value) FROM sensors USE SNAPSHOT");
        net.AuditSnapshotNow();
        cell.discovery_audited += audit.audited_total();
        cell.discovery_violations += audit.violations_total();

        // Phase 2: readings random-walk away from the trained state while
        // maintenance repairs what the violation reports reach; every
        // tick is sweep-audited against the deployment T.
        const Time drift_end = net.now() + drift_ticks;
        net.ScheduleMaintenance(net.now() + kMaintInterval, drift_end,
                                kMaintInterval);
        Rng drift_rng = Rng(seed).SplitNamed("accuracy-drift");
        std::vector<double> values(net.num_nodes());
        for (NodeId i = 0; i < net.num_nodes(); ++i) {
          values[i] = net.agent(i).measurement();
        }
        for (Time tick = net.now() + 1; tick <= drift_end; ++tick) {
          net.sim().ScheduleAt(tick, [&net, &values, &drift_rng] {
            for (NodeId i = 0; i < net.num_nodes(); ++i) {
              values[i] += drift_rng.Gaussian(0.0, kDriftStep);
            }
            net.SetMeasurements(values);
            net.AuditSnapshotNow();
          });
        }
        net.RunAll();

        cell.audited += audit.audited_total();
        cell.violations += audit.violations_total();
        cell.errors.MergeFrom(audit.error_histogram());
        obs::MetricSink().MergeFrom(net.sim().registry());
      }
      if (loss == 0.0 && cell.discovery_violations > 0) {
        lossless_violation = true;
      }
      table.AddRow({TablePrinter::Num(loss, 2), TablePrinter::Num(t, 1),
                    std::to_string(cell.audited),
                    std::to_string(cell.discovery_violations),
                    std::to_string(cell.violations),
                    TablePrinter::Num(cell.violation_rate(), 4),
                    TablePrinter::Num(
                        cell.violation_rate() / obs::kAccuracyErrorBudget, 2),
                    TablePrinter::Num(cell.errors.Percentile(50.0), 4),
                    TablePrinter::Num(cell.errors.Percentile(99.0), 4),
                    TablePrinter::Num(cell.errors.max_seen(), 4)});
      cells.push_back(std::move(cell));
    }
  }
  table.Print(std::cout);

  if (ctx.write_sidecars) {
    const std::string base = ctx.argv0.empty() ? ctx.name : ctx.argv0;
    const std::string path =
        bench::SidecarPath(base.c_str(), ".accuracy.json");
    if (obs::WriteTextFileAtomic(
            path, CellsToJson(cells, ctx.name, ctx.repetitions, ctx.quick))) {
      std::printf("accuracy sidecar: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    }
  }

  if (lossless_violation) {
    std::printf("ACCURACY GATE FAILED: discovery-time bound violations with "
                "zero message loss (fresh representations must honor T when "
                "nothing is lost)\n");
    ctx.exit_code = 1;
  } else {
    std::printf("accuracy gate: lossless discovery audits have zero "
                "violations\n");
  }
}
