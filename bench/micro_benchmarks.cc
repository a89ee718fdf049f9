// Microbenchmarks (google-benchmark) for the hot paths a sensor-node
// implementation would care about: model updates, cache admission,
// candidacy checks, plus whole-subsystem operations (election, routing
// tree, query execution, parsing).
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "api/experiment.h"
#include "api/network.h"
#include "model/cache_manager.h"
#include "net/topology.h"
#include "obs/journal.h"
#include "obs/metric_registry.h"
#include "query/executor.h"
#include "query/explain.h"
#include "query/parser.h"
#include "query/routing_tree.h"

namespace snapq {
namespace {

void BM_RegressionAddFit(benchmark::State& state) {
  Rng rng(1);
  RegressionStats stats;
  double x = 0.0;
  for (auto _ : state) {
    x += 0.5;
    stats.Add(x, 2.0 * x + rng.NextDouble());
    benchmark::DoNotOptimize(stats.Fit());
  }
}
BENCHMARK(BM_RegressionAddFit);

void BM_CacheObserve(benchmark::State& state) {
  const bool model_aware = state.range(0) == 0;
  CacheConfig config;
  config.capacity_bytes = 2048;
  config.policy =
      model_aware ? CachePolicy::kModelAware : CachePolicy::kRoundRobin;
  CacheManager cache(config);
  Rng rng(2);
  Time t = 0;
  for (auto _ : state) {
    const NodeId j = static_cast<NodeId>(rng.UniformInt(0, 98));
    benchmark::DoNotOptimize(
        cache.Observe(j, rng.Gaussian(0, 5), rng.Gaussian(0, 5), ++t));
  }
}
BENCHMARK(BM_CacheObserve)->Arg(0)->Arg(1)->ArgNames({"policy"});

void BM_CanRepresent(benchmark::State& state) {
  ModelStore store(0, CacheConfig{});
  store.SetOwnValue(1.0, 0);
  store.Observe(5, 10.0, 0);
  store.SetOwnValue(2.0, 1);
  store.Observe(5, 20.0, 1);
  const ErrorMetric metric = ErrorMetric::SumSquared();
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.CanRepresent(5, 30.5, metric, 1.0));
  }
}
BENCHMARK(BM_CanRepresent);

void BM_GlobalElection100Nodes(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    SensitivityConfig config;
    config.num_classes = 10;
    config.seed = 7;
    auto net = BuildSensitivityNetwork(config);
    net->RunUntil(config.discovery_time);
    state.ResumeTiming();
    benchmark::DoNotOptimize(net->RunElection(config.discovery_time));
  }
}
BENCHMARK(BM_GlobalElection100Nodes)->Unit(benchmark::kMillisecond);

void BM_RoutingTreeBuild(benchmark::State& state) {
  Rng rng(3);
  const auto pts =
      PlaceUniform(static_cast<size_t>(state.range(0)), Rect::UnitSquare(),
                   rng);
  const LinkModel links(
      pts, std::vector<double>(static_cast<size_t>(state.range(0)), 0.3),
      0.0);
  const std::vector<bool> alive(static_cast<size_t>(state.range(0)), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RoutingTree::Build(links, alive, 0));
  }
}
BENCHMARK(BM_RoutingTreeBuild)->Arg(100)->Arg(400)->ArgNames({"nodes"});

void BM_SnapshotQuery(benchmark::State& state) {
  SensitivityConfig config;
  config.num_classes = 10;
  config.seed = 9;
  SensitivityOutcome outcome = RunSensitivityTrial(config);
  SensorNetwork& net = *outcome.network;
  Rng rng(4);
  for (auto _ : state) {
    ExecutionOptions options;
    options.sink = static_cast<NodeId>(rng.UniformInt(0, 99));
    const Point center{rng.NextDouble(), rng.NextDouble()};
    benchmark::DoNotOptimize(net.executor().ExecuteRegion(
        Rect::CenteredSquare(center, 0.32), /*use_snapshot=*/true,
        AggregateFunction::kSum, options));
  }
}
BENCHMARK(BM_SnapshotQuery);

// The same query round with a provenance hook attached: the per-round
// price EXPLAIN ANALYZE pays over plain execution (claims map copy,
// per-node depth vector). BM_SnapshotQuery is the null-hook baseline.
void BM_SnapshotQueryWithProvenance(benchmark::State& state) {
  SensitivityConfig config;
  config.num_classes = 10;
  config.seed = 9;
  SensitivityOutcome outcome = RunSensitivityTrial(config);
  SensorNetwork& net = *outcome.network;
  Rng rng(4);
  for (auto _ : state) {
    QueryProvenance prov;
    ExecutionOptions options;
    options.sink = static_cast<NodeId>(rng.UniformInt(0, 99));
    options.provenance = &prov;
    const Point center{rng.NextDouble(), rng.NextDouble()};
    benchmark::DoNotOptimize(net.executor().ExecuteRegion(
        Rect::CenteredSquare(center, 0.32), /*use_snapshot=*/true,
        AggregateFunction::kSum, options));
    benchmark::DoNotOptimize(prov.claims.size());
  }
}
BENCHMARK(BM_SnapshotQueryWithProvenance);

// A full EXPLAIN plan (no execution): predicate resolution + PlanRegion +
// per-node provenance rows. What an interactive EXPLAIN costs end to end.
void BM_ExplainPlan(benchmark::State& state) {
  SensitivityConfig config;
  config.num_classes = 10;
  config.seed = 9;
  SensitivityOutcome outcome = RunSensitivityTrial(config);
  SensorNetwork& net = *outcome.network;
  const QuerySpec spec =
      *ParseQuery("EXPLAIN SELECT avg(value) FROM sensors "
                  "WHERE loc IN RECT(0.25, 0.25, 0.75, 0.75) USE SNAPSHOT");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExplainQuery(net.executor(), spec, {}));
  }
}
BENCHMARK(BM_ExplainPlan);

// The observability layer's hot-path costs: a cached counter bump is what
// every Simulator::Send pays; a disabled journal emit is the price of an
// unobserved protocol event (must stay one branch — the field-building
// lambda never runs).
void BM_ObsCounterInc(benchmark::State& state) {
  obs::MetricRegistry registry;
  obs::Counter* counter = registry.GetCounter("bench.counter");
  for (auto _ : state) {
    counter->Inc();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_ObsCounterInc);

// The Send hot path with tracing in its three states: detached, attached
// at sampling 0 (every cost must hide behind one branch — the acceptance
// bar is "no extra heap allocations", enforced by trace_alloc_test), and
// fully sampled (span + delivery records per transmission).
void BM_SimulatorSendTraced(benchmark::State& state) {
  Simulator sim({{0, 0}, {1, 0}, {2, 0}}, {1.5, 1.5, 1.5}, SimConfig{});
  obs::TracerConfig config;
  config.sampling = static_cast<double>(state.range(0)) / 100.0;
  config.max_spans = 1u << 20;
  obs::Tracer tracer(config);
  if (state.range(0) >= 0) sim.SetTracer(&tracer);
  Message m;
  m.type = MessageType::kData;
  m.from = 0;
  m.to = kBroadcastId;
  m.value = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Send(m));
    sim.RunAll();
    if (tracer.spans().size() > (1u << 19)) tracer.Clear();
  }
}
BENCHMARK(BM_SimulatorSendTraced)
    ->Arg(-1)   // no tracer attached
    ->Arg(0)    // tracer attached, sampling 0 (must match -1)
    ->Arg(100)  // sampling 1.0
    ->ArgNames({"sampling_pct"});

void BM_ObsJournalEmitDisabled(benchmark::State& state) {
  obs::EventJournal journal;  // no sink: disabled
  int64_t t = 0;
  for (auto _ : state) {
    journal.Emit("bench.event", ++t, [&](obs::JournalEvent& e) {
      e.Node(17).Int("expensive", t);
    });
    benchmark::DoNotOptimize(journal.events_emitted());
  }
}
BENCHMARK(BM_ObsJournalEmitDisabled);

// One SampleTelemetry with every observer attached, on a trained and
// elected deployment of the given size: range 0.2*sqrt(100/n) (degree
// ~12.6), 5% loss and snooping, T=0.1, a smooth drifting field. The
// topology analysis is most of it.
void BM_SampleTelemetry(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  NetworkConfig config;
  config.num_nodes = n;
  config.transmission_range = 0.2 * std::sqrt(100.0 / static_cast<double>(n));
  config.loss_probability = 0.05;
  config.snoop_probability = 0.05;
  config.snapshot.threshold = 0.1;
  config.seed = 5;
  SensorNetwork net(config);
  net.EnableTelemetry();
  net.EnableEnergyLedger();
  net.EnableAccuracyAudit();
  net.EnableTopologyMonitor();
  obs::TracerConfig tracer;
  tracer.sampling = 0.05;
  net.EnableTracing(tracer);
  std::vector<double> values(n);
  for (Time t = 0; t < 40; ++t) {
    net.sim().ScheduleAt(t, [&net, &values, t] {
      for (NodeId i = 0; i < values.size(); ++i) {
        const Point& p = net.position(i);
        values[i] = 40.0 + 20.0 * p.x + 10.0 * p.y +
                    10.0 * p.x * std::sin(0.13 * static_cast<double>(t));
      }
      net.SetMeasurements(values);
    });
  }
  net.ScheduleTrainingBroadcasts(0, 10);
  net.RunUntil(10);
  net.RunElection(10);
  net.RunUntil(39);
  for (auto _ : state) {
    net.SampleTelemetry();
    benchmark::DoNotOptimize(net.topology_monitor()->last().clusters.data());
  }
}
BENCHMARK(BM_SampleTelemetry)
    ->Arg(1000)
    ->Arg(10000)
    ->ArgNames({"nodes"})
    ->Unit(benchmark::kMillisecond);

void BM_ParseQuery(benchmark::State& state) {
  const std::string sql =
      "SELECT loc, avg(value) FROM sensors WHERE loc IN "
      "SOUTH_EAST_QUADRANT SAMPLE INTERVAL 1s FOR 5min USE SNAPSHOT "
      "ERROR 0.5";
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseQuery(sql));
  }
}
BENCHMARK(BM_ParseQuery);

}  // namespace
}  // namespace snapq

BENCHMARK_MAIN();
