// snapq_shell: an interactive shell over a simulated deployment. Loads a
// CSV dataset (one column per node; see Dataset::ReadCsv) or generates the
// paper's synthetic workload, trains models, elects a snapshot and then
// reads queries from stdin.
//
//   $ ./build/examples/snapq_shell [data.csv]
//   snapq> SELECT avg(value) FROM sensors WHERE loc IN NORTH_HALF USE SNAPSHOT
//   snapq> \snapshot
//   snapq> \quit
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "api/network.h"
#include "common/string_util.h"
#include "data/random_walk.h"
#include "obs/health_monitor.h"
#include "obs/journal.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"
#include "obs/trace_analyzer.h"
#include "obs/tracer.h"

using namespace snapq;

namespace {

void PrintResult(const QueryResult& r) {
  if (r.aggregate.has_value()) {
    std::printf("%.4f\n", *r.aggregate);
  } else {
    std::printf("%-5s %-5s %10s  %s\n", "loc", "by", "value", "");
    for (const QueryRow& row : r.rows) {
      if (row.model_error.has_value()) {
        std::printf("%-5u %-5u %10.4f  (estimated, err %+.4f)\n", row.loc,
                    row.reporter, row.value, *row.model_error);
      } else {
        std::printf("%-5u %-5u %10.4f  %s\n", row.loc, row.reporter,
                    row.value, row.estimated ? "(estimated)" : "");
      }
    }
  }
  std::printf("-- %zu participants, %zu responders, coverage %.0f%%\n",
              r.participants, r.responders, 100.0 * r.coverage);
}

void PrintSnapshot(SensorNetwork& net) {
  const SnapshotView view = net.Snapshot();
  std::printf("%zu representatives, %zu passive, %zu spurious\n",
              view.CountActive(), view.CountPassive(), view.CountSpurious());
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    if (view.node(i).mode != NodeMode::kActive) continue;
    std::printf("  rep %u at (%.2f, %.2f) represents %zu nodes\n", i,
                net.position(i).x, net.position(i).y,
                view.represents(i).size());
  }
}

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  SELECT ...            run a query (append USE SNAPSHOT to use the\n"
      "                        representatives; see README for the dialect)\n"
      "  EXPLAIN [ANALYZE] SELECT ...\n"
      "                        show the plan: predicate resolution, routing,\n"
      "                        per-node provenance and cost (ANALYZE also\n"
      "                        executes and joins estimated vs actual cost)\n"
      "  \\explain              EXPLAIN ANALYZE the last query\n"
      "  \\snapshot             show the current representative set\n"
      "  \\elect                re-run representative discovery\n"
      "  \\regions              list named regions\n"
      "  \\metrics [substr]     dump the metric registry (CSV), optionally\n"
      "                        filtered to names containing substr\n"
      "  \\journal [n]          show the last n journal events (default 20)\n"
      "  \\health               sample snapshot health (coverage, violation\n"
      "                        rate, spurious reps, model staleness), plus\n"
      "                        since-start trends and SLO rule status\n"
      "  \\accuracy             ground-truth audit: per-node error table\n"
      "                        (audited count, violations, mean/p95/max\n"
      "                        |error|) and the violation-rate sparkline\n"
      "  \\energy               energy ledger: per-cause joule attribution,\n"
      "                        remaining charge, deaths and lifetime\n"
      "                        forecasts, plus the burn-rate sparkline\n"
      "  \\topo                 topology & churn: partitions, bridges,\n"
      "                        articulation nodes, per-cluster radius/depth,\n"
      "                        weakest observed links and churn rates\n"
      "  \\timeline [substr]    sparkline every telemetry series (health,\n"
      "                        message rates, RSS), optionally filtered\n"
      "  \\trace [id]           list recorded causal traces, or show one\n"
      "                        trace's report with invariant verdicts\n"
      "  \\profile              hot-path operation counts since startup\n"
      "  \\help                 this text\n"
      "  \\quit                 exit\n");
}

/// First whitespace-delimited token of `line` (keywords are
/// case-insensitive, so compare with EqualsIgnoreCase).
std::string_view FirstWord(std::string_view line) {
  const std::string_view stripped = StripWhitespace(line);
  const size_t space = stripped.find_first_of(" \t");
  return space == std::string_view::npos ? stripped : stripped.substr(0, space);
}

/// Unicode sparkline over the series' retained bin means (newest right),
/// normalized to the displayed window's envelope.
std::string Sparkline(const obs::TimeSeries& series, size_t width = 48) {
  static const char* const kBlocks[] = {"▁", "▂", "▃", "▄",
                                        "▅", "▆", "▇", "█"};
  const size_t bins = series.num_bins();
  if (bins == 0) return "(no samples)";
  const size_t first = bins > width ? bins - width : 0;
  double lo = series.bin(first).mean(), hi = lo;
  for (size_t i = first; i < bins; ++i) {
    lo = std::min(lo, series.bin(i).mean());
    hi = std::max(hi, series.bin(i).mean());
  }
  std::string out;
  for (size_t i = first; i < bins; ++i) {
    const double norm =
        hi > lo ? (series.bin(i).mean() - lo) / (hi - lo) : 0.5;
    out += kBlocks[std::min<size_t>(7, static_cast<size_t>(norm * 8.0))];
  }
  return out;
}

void PrintSeriesLine(const std::string& name, const obs::TimeSeries& s) {
  std::printf("  %-24s %s\n", name.c_str(), Sparkline(s).c_str());
  std::printf("  %-24s last %.4g  ewma %.4g  min %.4g  mean %.4g  max %.4g"
              "  slope %+.2e  (%llu samples)\n",
              "", s.last(), s.ewma(), s.min_seen(), s.mean(), s.max_seen(),
              s.Slope(), static_cast<unsigned long long>(s.num_samples()));
}

}  // namespace

int main(int argc, char** argv) {
  // Data: CSV if given, else the paper's K=10 random walk.
  Result<Dataset> data = [&]() -> Result<Dataset> {
    if (argc > 1) return Dataset::ReadCsv(argv[1]);
    Rng rng(7);
    RandomWalkConfig walk;
    walk.num_nodes = 100;
    walk.num_classes = 10;
    walk.horizon = 101;
    return Dataset::Create(GenerateRandomWalk(walk, rng).series);
  }();
  if (!data.ok()) {
    std::fprintf(stderr, "failed to load data: %s\n",
                 data.status().ToString().c_str());
    return 1;
  }

  NetworkConfig config;
  config.num_nodes = data->num_nodes();
  config.snapshot.threshold = 1.0;
  config.seed = 42;
  // The paper's finite battery (500 transmissions) so the energy ledger
  // has real drains to attribute — the scripted bootstrap uses a small
  // fraction of it, so interactive sessions never start with dead nodes.
  config.energy = EnergyModel();
  SensorNetwork net(config);
  // The simulated deployment carries one reading per node; expose it under
  // the conventional measurement name too so `avg(temperature)` works.
  net.executor().catalog().RegisterMeasurementColumn("temperature");
  // Record protocol events (election transitions, cache evictions, query
  // plans) in memory for the \journal command. Installed before training
  // so the initial election is captured too.
  auto* journal_sink = static_cast<obs::MemoryJournalSink*>(
      net.sim().journal().SetSink(
          std::make_unique<obs::MemoryJournalSink>(10000)));
  // Trace every protocol root cause from the start so the initial election
  // (and later re-elections / queries) shows up under \trace.
  obs::Tracer& tracer = net.EnableTracing();
  // Telemetry: trend the health gauges, message rates and RSS from tick 0
  // (sampled every 5 ticks during the scripted phase; \health and
  // \timeline take a fresh sample on demand afterwards).
  obs::TelemetryConfig telemetry_config;
  telemetry_config.sample_interval = 5;
  net.EnableTelemetry(telemetry_config);
  // Ground-truth accuracy auditing: every query below is audited against
  // the configured T, and each telemetry sample sweeps the representation
  // state — \accuracy reads the result.
  net.EnableAccuracyAudit();
  // Per-joule drain attribution from tick 0 (\energy, and EXPLAIN ANALYZE
  // gains its per-query joule breakdown).
  net.EnableEnergyLedger();
  // Per-link delivery stats plus structural/churn analysis per telemetry
  // sample (\topo reads the result).
  net.EnableTopologyMonitor();
  // Profile from the start too, so \profile covers the initial election
  // and every interactive query.
  obs::Profiler::Enable();
  const Time horizon = static_cast<Time>(data->horizon());
  if (Status s = net.AttachDataset(std::move(*data)); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  const Time train = std::min<Time>(10, horizon);
  net.ScheduleTrainingBroadcasts(0, train);
  net.ScheduleTelemetrySampling(0, horizon);
  net.RunUntil(horizon - 1);
  const ElectionStats stats = net.RunElection(horizon - 1);
  // SLO rules only make sense once a snapshot exists — installing them
  // here keeps the pre-election bootstrap (coverage 0 by definition)
  // from arming a spurious breach.
  net.AddSloRule("health.coverage value >= 0.5 for 50");
  net.AddSloRule("proc.rss_kb slope <= 64");
  std::printf("loaded %zu nodes, %lld time units; snapshot has %zu "
              "representatives (T=%.1f)\n",
              net.num_nodes(), static_cast<long long>(horizon),
              stats.num_active, config.snapshot.threshold);
  PrintHelp();

  std::string line;
  std::string last_query;  // last successful plain query, for \explain
  // Interactive queries drain the (finite) batteries like any deployed
  // workload would, so \energy attributes them and EXPLAIN ANALYZE's
  // joule column reflects what the query actually cost.
  ExecutionOptions exec_options;
  exec_options.charge_energy = true;
  std::printf("snapq> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    if (line == "\\quit" || line == "\\q") break;
    if (line == "\\help") {
      PrintHelp();
    } else if (line == "\\snapshot") {
      PrintSnapshot(net);
    } else if (line == "\\elect") {
      const ElectionStats s = net.RunElection(net.now());
      std::printf("re-elected: %zu representatives (avg %.1f msgs/node)\n",
                  s.num_active, s.avg_messages_per_node);
    } else if (line == "\\regions") {
      for (const std::string& name : net.executor().catalog().RegionNames()) {
        std::printf("  %s\n", name.c_str());
      }
    } else if (line.rfind("\\metrics", 0) == 0) {
      const std::string filter(
          StripWhitespace(std::string_view(line).substr(8)));
      std::istringstream csv(net.sim().registry().ToCsv());
      std::string row;
      bool first = true;
      while (std::getline(csv, row)) {
        // Always keep the CSV header; filter the data rows by substring.
        if (first || filter.empty() || row.find(filter) != std::string::npos) {
          std::printf("%s\n", row.c_str());
        }
        first = false;
      }
    } else if (line == "\\explain") {
      if (last_query.empty()) {
        std::printf("nothing to explain yet — run a query first, e.g.\n"
                    "  SELECT avg(value) FROM sensors USE SNAPSHOT\n"
                    "then \\explain replays it as EXPLAIN ANALYZE.\n");
      } else {
        const Result<ExplainReport> report =
            net.Explain("EXPLAIN ANALYZE " + last_query, exec_options);
        if (report.ok()) {
          std::printf("%s", report->ToString().c_str());
        } else {
          std::printf("error: %s\n", report.status().ToString().c_str());
        }
      }
    } else if (line == "\\profile") {
      std::printf("%s", obs::Profiler::Global().ToTable().c_str());
    } else if (line == "\\health") {
      net.SampleTelemetry();
      std::printf("%s", net.health_monitor()->ToString().c_str());
      std::printf("since start:\n");
      net.telemetry()->ForEachSeries([&](const std::string& name,
                                         const obs::TimeSeries& s) {
        if (name.rfind("health.", 0) != 0 || s.num_samples() == 0) return;
        const size_t breaches = net.watchdog()->BreachesFor(name);
        std::printf("  %-24s min %.4g  mean %.4g  max %.4g  (%zu breach%s)\n",
                    name.c_str(), s.min_seen(), s.mean(), s.max_seen(),
                    breaches, breaches == 1 ? "" : "es");
      });
      std::printf("%s", net.watchdog()->ToString().c_str());
    } else if (line == "\\accuracy") {
      net.SampleTelemetry();  // fresh sweep audit + telemetry sample
      std::printf("%s", net.accuracy_auditor()->ToTable().c_str());
      if (const obs::TimeSeries* s =
              net.telemetry()->series("accuracy.violation_rate")) {
        PrintSeriesLine("accuracy.violation_rate", *s);
      }
    } else if (line == "\\energy") {
      net.SampleTelemetry();  // fresh gauges + forecast series
      std::printf("%s", net.energy_ledger()->ToTable().c_str());
      if (const obs::TimeSeries* s =
              net.telemetry()->series("energy.burn_rate")) {
        PrintSeriesLine("energy.burn_rate", *s);
      }
    } else if (line == "\\topo") {
      net.SampleTelemetry();  // fresh topology analysis + churn sweep
      std::printf("%s", net.topology_monitor()->ToString().c_str());
      if (const obs::TimeSeries* s =
              net.telemetry()->series("topo.partitions")) {
        PrintSeriesLine("topo.partitions", *s);
      }
    } else if (line.rfind("\\timeline", 0) == 0) {
      net.SampleTelemetry();
      const std::string filter(
          StripWhitespace(std::string_view(line).substr(9)));
      bool any = false;
      net.telemetry()->ForEachSeries([&](const std::string& name,
                                         const obs::TimeSeries& s) {
        if (!filter.empty() && name.find(filter) == std::string::npos) return;
        PrintSeriesLine(name, s);
        any = true;
      });
      if (!any) {
        std::printf("no series matches '%s'\n", filter.c_str());
      } else {
        std::printf("-- %llu samples every %lld ticks (on demand after "
                    "t=%lld); \\timeline <substr> to filter\n",
                    static_cast<unsigned long long>(
                        net.telemetry()->num_samples()),
                    static_cast<long long>(
                        net.telemetry()->config().sample_interval),
                    static_cast<long long>(horizon));
      }
    } else if (line.rfind("\\trace", 0) == 0) {
      const obs::TraceAnalyzer analyzer(&tracer);
      uint64_t id = 0;
      if (line.size() > 7) {
        id = std::strtoull(line.c_str() + 7, nullptr, 10);
      }
      if (id == 0) {
        for (const obs::TraceReport& report : analyzer.AnalyzeAll()) {
          std::printf("  trace %llu  %-14s  %zu spans, %zu msgs, "
                      "[%lld..%lld]  %s\n",
                      static_cast<unsigned long long>(report.trace_id),
                      obs::TraceRootKindName(report.root_kind),
                      report.num_spans, report.num_messages,
                      static_cast<long long>(report.sim_start),
                      static_cast<long long>(report.sim_end),
                      report.AllPass() ? "PASS" : "FAIL");
        }
        std::printf("-- %llu traces, %zu spans (%llu dropped); "
                    "\\trace <id> for details\n",
                    static_cast<unsigned long long>(tracer.num_traces()),
                    tracer.spans().size(),
                    static_cast<unsigned long long>(tracer.dropped_spans()));
      } else if (std::optional<obs::TraceReport> report = analyzer.Analyze(id);
                 report.has_value()) {
        std::printf("%s", report->ToString().c_str());
      } else {
        std::printf("no trace %llu\n", static_cast<unsigned long long>(id));
      }
    } else if (line.rfind("\\journal", 0) == 0) {
      size_t limit = 20;
      if (line.size() > 9) {
        limit = static_cast<size_t>(std::strtoul(line.c_str() + 9, nullptr, 10));
        if (limit == 0) limit = 20;
      }
      const std::vector<std::string>& events = journal_sink->lines();
      const size_t start = events.size() > limit ? events.size() - limit : 0;
      for (size_t i = start; i < events.size(); ++i) {
        std::printf("%s\n", events[i].c_str());
      }
      std::printf("-- %llu events emitted (%zu retained)\n",
                  static_cast<unsigned long long>(
                      net.sim().journal().events_emitted()),
                  events.size());
    } else if (EqualsIgnoreCase(FirstWord(line), "explain")) {
      const Result<ExplainReport> report = net.Explain(line, exec_options);
      if (report.ok()) {
        std::printf("%s", report->ToString().c_str());
      } else {
        std::printf("error: %s\n", report.status().ToString().c_str());
      }
    } else if (!line.empty()) {
      const Result<QueryResult> r = net.Query(line, exec_options);
      if (r.ok()) {
        PrintResult(*r);
        last_query = line;
      } else {
        std::printf("error: %s\n", r.status().ToString().c_str());
      }
    }
    std::printf("snapq> ");
    std::fflush(stdout);
  }
  std::printf("\n");
  return 0;
}
