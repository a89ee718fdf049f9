// Figure 10: network coverage over time for regular vs snapshot queries
// (K = 1, T = 1, range 0.7). Setup (§6.2): every node starts with a
// battery worth 500 transmissions; running the cache-maintenance
// algorithm costs 0.1 of a transmission; random spatial queries of area
// 0.1 are executed continuously. Coverage = measurements available to a
// query / measurements an infinite-battery network would deliver.
//
// The snapshot run additionally pays for electing and maintaining the
// representatives; the regular run's only drain is query participation.
//
// Paper shape: regular coverage holds at 100% to about the middle of the
// run, then collapses below 20% (uniform drain kills most nodes at once);
// snapshot coverage declines gradually (representatives drain faster) and
// the area under the curve is substantially larger.
#include <cmath>
#include <iostream>
#include <vector>

#include "api/experiment.h"
#include "bench_util.h"
#include "common/table_printer.h"
#include "exec/parallel_sweep.h"
#include "query/executor.h"

namespace {

using namespace snapq;

constexpr Time kTrainTicks = 10;
constexpr Time kDiscovery = 20;
/// First query tick: after the snapshot run's election window has settled
/// (the same instant is used for the regular run, for comparability).
constexpr Time kQueryStart = 90;
constexpr Time kFullHorizon = 9000;
constexpr int kFullRepetitions = 5;
// The paper's "simple maintenance protocol that replaced representative
// nodes as they died out": heartbeats every 100 units (the paper's update
// cadence, Fig 14) with single-miss failover.
constexpr Time kMaintenanceInterval = 100;
constexpr int kBuckets = 20;

struct LifetimeCurve {
  std::vector<RunningStats> coverage;  // per time bucket
  LifetimeCurve() : coverage(kBuckets) {}
};

/// One run's raw coverage samples, per time bucket, in observation order.
/// Runs execute in parallel; the driver folds the samples into the
/// RunningStats curves sequentially so the accumulators see the same
/// addition order regardless of --jobs.
using LifetimeSamples = std::vector<std::vector<double>>;

/// Everything one lifetime run hands back to the driver: the coverage
/// samples plus the run's energy ledger snapshot and node layout, so the
/// driver can attribute the drain and write the spatial energy map.
struct LifetimeRun {
  LifetimeSamples samples;
  obs::EnergyLedgerSnapshot energy;
  std::vector<Point> positions;
  Time end = 0;
};

LifetimeRun RunLifetime(bool use_snapshot, uint64_t seed, Time horizon) {
  NetworkConfig config;
  config.num_nodes = 100;
  config.transmission_range = 0.7;
  config.energy = EnergyModel();  // the paper's 500-transmission battery
  config.snapshot.threshold = 1.0;
  config.snapshot.heartbeat_miss_limit = 1;  // replace dead reps promptly
  config.seed = seed;
  SensorNetwork net(config);

  // K=1 random-walk data over the whole horizon.
  Rng data_rng = Rng(seed).SplitNamed("data");
  RandomWalkConfig walk;
  walk.num_nodes = 100;
  walk.num_classes = 1;
  walk.horizon = static_cast<size_t>(horizon) + 1;
  Result<Dataset> dataset =
      Dataset::Create(GenerateRandomWalk(walk, data_rng).series);
  SNAPQ_CHECK(dataset.ok());
  SNAPQ_CHECK(net.AttachDataset(std::move(*dataset)).ok());

  // Attribute every joule of the run: tx/rx per message type, cache
  // maintenance, and (in the snapshot run) the election/heartbeat
  // machinery all land in distinct ledger cells.
  obs::EnergyLedger& ledger = net.EnableEnergyLedger();

  if (use_snapshot) {
    // Election + maintenance only happen in the snapshot run; the regular
    // run spends no energy on the snapshot machinery.
    net.ScheduleTrainingBroadcasts(0, kTrainTicks);
    net.RunUntil(kDiscovery);
    net.RunElection(kDiscovery);
    net.ScheduleMaintenance(net.now() + kMaintenanceInterval, horizon,
                            kMaintenanceInterval);
  }

  LifetimeSamples samples(kBuckets);
  Rng query_rng = Rng(seed).SplitNamed("queries");
  const double w = std::sqrt(0.1);
  for (Time t = kQueryStart; t < horizon; ++t) {
    net.RunUntil(t);
    ExecutionOptions options;
    // The query attaches to a live gateway node (a user would not pick a
    // dead sink); identical policy for both runs.
    NodeId sink = static_cast<NodeId>(query_rng.UniformInt(0, 99));
    for (int tries = 0; tries < 200 && !net.sim().alive(sink); ++tries) {
      sink = static_cast<NodeId>(query_rng.UniformInt(0, 99));
    }
    options.sink = sink;
    options.charge_energy = true;
    const Point center{query_rng.NextDouble(), query_rng.NextDouble()};
    const QueryResult result = net.executor().ExecuteRegion(
        Rect::CenteredSquare(center, w), use_snapshot,
        AggregateFunction::kSum, options);
    if (result.matching_nodes > 0) {
      const size_t bucket = static_cast<size_t>(
          (t - kQueryStart) * kBuckets / (horizon - kQueryStart));
      samples[std::min<size_t>(bucket, kBuckets - 1)].push_back(
          result.coverage);
    }
    // Per-tick gauge refresh feeds the min/median remaining-charge trend
    // series the first-death / coverage-knee forecasts project from.
    ledger.UpdateGauges(t);
  }
  ledger.UpdateGauges(net.now());
  obs::MetricSink().MergeFrom(net.sim().registry());

  LifetimeRun run;
  run.samples = std::move(samples);
  run.energy = ledger.TakeSnapshot();
  run.positions.reserve(config.num_nodes);
  for (NodeId id = 0; id < static_cast<NodeId>(config.num_nodes); ++id) {
    run.positions.push_back(net.position(id));
  }
  run.end = net.now();
  return run;
}

}  // namespace

SNAPQ_BENCHMARK(fig10_network_lifetime,
                "Figure 10: network coverage over time (K=1, range=0.7)") {
  using namespace snapq;
  bench::Driver driver(
      ctx, "Figure 10: network coverage over time (K=1, range=0.7)",
      "battery=500 tx, cache op=0.1 tx, continuous random queries of area "
      "0.1; coverage = available measurements / ideal measurements");

  // Quick mode keeps the bucket structure but shortens the horizon; the
  // paper's full run is 9,000 time units x 5 repetitions.
  const Time horizon =
      std::max<Time>(ctx.Scaled(kFullHorizon), kQueryStart + kBuckets);
  const int reps = static_cast<int>(ctx.Scaled(kFullRepetitions));

  // Even task indices are the regular runs, odd the snapshot runs, both
  // ordered by seed — the same order the old serial loop used, so the
  // index-ordered reduction reproduces it exactly.
  const auto per_run = exec::ParallelMap<LifetimeRun>(
      static_cast<size_t>(reps) * 2, ctx.jobs, [&](size_t i) {
        return RunLifetime(/*use_snapshot=*/(i % 2) == 1,
                           bench::kBaseSeed + static_cast<uint64_t>(i / 2),
                           horizon);
      });
  LifetimeCurve regular, snapshot;
  RunningStats drained_regular, drained_snapshot, deaths_regular,
      deaths_snapshot;
  for (size_t i = 0; i < per_run.size(); ++i) {
    LifetimeCurve& curve = (i % 2) == 1 ? snapshot : regular;
    for (size_t b = 0; b < static_cast<size_t>(kBuckets); ++b) {
      for (double coverage : per_run[i].samples[b]) {
        curve.coverage[b].Add(coverage);
      }
    }
    const obs::EnergyLedgerSnapshot& energy = per_run[i].energy;
    ((i % 2) == 1 ? drained_snapshot : drained_regular)
        .Add(energy.TotalDrained());
    ((i % 2) == 1 ? deaths_snapshot : deaths_regular)
        .Add(static_cast<double>(energy.TotalDeaths()));
  }

  TablePrinter table({"time", "regular coverage", "snapshot coverage"});
  double area_regular = 0.0;
  double area_snapshot = 0.0;
  for (int b = 0; b < kBuckets; ++b) {
    const Time t = kQueryStart + (horizon - kQueryStart) * (b + 1) / kBuckets;
    area_regular += regular.coverage[static_cast<size_t>(b)].mean();
    area_snapshot += snapshot.coverage[static_cast<size_t>(b)].mean();
    table.AddRow(
        {std::to_string(t),
         TablePrinter::Num(100.0 * regular.coverage[static_cast<size_t>(b)].mean(), 1) + "%",
         TablePrinter::Num(100.0 * snapshot.coverage[static_cast<size_t>(b)].mean(), 1) + "%"});
  }
  table.Print(std::cout);
  std::printf("\narea under curve: regular=%.2f snapshot=%.2f (of %d)\n",
              area_regular, area_snapshot, kBuckets);

  // Energy attribution (rep 0): where the joules went and when the runs
  // started losing nodes. The spatial map sidecar uses the snapshot run —
  // it is the one with per-cause structure (election/maintenance vs
  // query) worth mapping; per-node cells cannot be merged across seeds
  // because each seed lays the nodes out differently.
  const LifetimeRun& showcase = per_run[1];
  std::printf("energy drained per run (mean J): regular=%.1f snapshot=%.1f\n",
              drained_regular.mean(), drained_snapshot.mean());
  std::printf("node deaths per run (mean):      regular=%.1f snapshot=%.1f\n",
              deaths_regular.mean(), deaths_snapshot.mean());
  if (showcase.energy.first_death_tick >= 0) {
    std::printf("snapshot rep 0 first death: tick %.0f\n",
                showcase.energy.first_death_tick);
  }
  driver.WriteEnergyMap(
      showcase.energy, showcase.positions, showcase.end,
      {{"auc_regular", area_regular},
       {"auc_snapshot", area_snapshot},
       {"drained_mean_regular", drained_regular.mean()},
       {"drained_mean_snapshot", drained_snapshot.mean()},
       {"deaths_mean_regular", deaths_regular.mean()},
       {"deaths_mean_snapshot", deaths_snapshot.mean()}});
}
