// Scale tier: fig14-style snapshot-over-time at 1k / 10k / 100k nodes —
// the payoff benchmark for the uniform-grid spatial index and the CSR
// adjacency. Density is held constant as n grows (the paper's 0.2 range
// on 100 nodes, scaled by sqrt(100/n), keeps the expected degree at
// ~12.6), so the adjacency build is O(n * k) and the per-round protocol
// work is O(n); the three BENCH.json entries — wall/RSS plus the
// `network_build` phase latency — document the sub-quadratic scaling
// (the brute-force O(n^2) build would make 100k nodes ~100x more
// expensive per node than 10k instead of ~1x).
//
// The workload mirrors Figure 14: train models, elect representatives,
// then run maintenance rounds over a smoothly drifting spatially
// correlated field (two latent drivers with Gaussian distance weights,
// closed-form — O(n) memory at any horizon, no 100k-row dataset). Every
// value is seeded and closed-form, so the tables and all hot-op counters
// are bit-identical for any --jobs.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <utility>
#include <vector>

#include "api/network.h"
#include "bench_util.h"
#include "common/table_printer.h"
#include "exec/parallel_sweep.h"
#include "obs/profiler.h"
#include "obs/span.h"

namespace snapq::bench {
namespace {

constexpr Time kTrainingTicks = 10;
constexpr Time kRoundInterval = 20;
/// Upper bound on the election's refinement window (max_wait + rule4 cap
/// + slack); data updates are pre-scheduled through it.
constexpr Time kElectionSlack = 80;

struct TierRun {
  ElectionStats election;
  std::vector<MaintenanceRoundStats> rounds;
  size_t edges = 0;
};

/// One seeded deployment at `n` nodes: build, train, elect, maintain.
TierRun RunTier(size_t n, uint64_t seed, int num_rounds) {
  NetworkConfig config;
  config.num_nodes = n;
  config.transmission_range =
      0.2 * std::sqrt(100.0 / static_cast<double>(n));
  config.snoop_probability = 0.05;
  config.snapshot.threshold = 0.1;
  config.seed = seed;

  std::unique_ptr<SensorNetwork> net;
  {
    obs::Span build_span(nullptr, obs::ProfPhase::kNetworkBuild);
    net = std::make_unique<SensorNetwork>(config);
  }

  TierRun run;
  const LinkModel& links = net->sim().links();
  for (NodeId i = 0; i < n; ++i) run.edges += links.Reachable(i).size();

  // Spatially correlated field, closed-form: two latent drivers at fixed
  // centers, per-node Gaussian distance weights plus a smooth offset.
  // Neighboring nodes are near-affine transforms of each other — the
  // regime the snapshot protocol targets — with no per-node series stored.
  std::vector<double> w1(n), w2(n), offset(n);
  for (NodeId i = 0; i < n; ++i) {
    const Point& p = net->position(i);
    const double l2 = 2.0 * 0.3 * 0.3;
    const double d1 = (p.x - 0.25) * (p.x - 0.25) + (p.y - 0.3) * (p.y - 0.3);
    const double d2 = (p.x - 0.75) * (p.x - 0.75) + (p.y - 0.7) * (p.y - 0.7);
    w1[i] = std::exp(-d1 / l2);
    w2[i] = std::exp(-d2 / l2);
    offset[i] = 40.0 + 20.0 * p.x + 10.0 * p.y;
  }
  const Time data_horizon = kTrainingTicks + kElectionSlack +
                            (static_cast<Time>(num_rounds) + 2) *
                                kRoundInterval;
  std::vector<double> values(n);
  SensorNetwork* raw = net.get();
  for (Time t = 0; t < data_horizon; ++t) {
    // Scheduled before any protocol event, so within every tick readings
    // are refreshed first (stable FIFO tie-break at equal times).
    net->sim().ScheduleAt(t, [raw, t, &w1, &w2, &offset, &values] {
      const double d1 = 10.0 * std::sin(0.13 * static_cast<double>(t));
      const double d2 = 10.0 * std::cos(0.07 * static_cast<double>(t) + 1.0);
      for (size_t i = 0; i < values.size(); ++i) {
        values[i] = offset[i] + w1[i] * d1 + w2[i] * d2;
      }
      raw->SetMeasurements(values);
    });
  }

  net->ScheduleTrainingBroadcasts(0, kTrainingTicks);
  net->RunUntil(kTrainingTicks);
  run.election = net->RunElection(kTrainingTicks);

  const Time first = net->now() + kRoundInterval;
  const Time horizon =
      first + static_cast<Time>(num_rounds) * kRoundInterval;
  net->ScheduleMaintenance(
      first, horizon, kRoundInterval,
      [&run](const MaintenanceRoundStats& s) { run.rounds.push_back(s); });
  net->RunAll();
  obs::MetricSink().MergeFrom(net->sim().registry());
  return run;
}

void RunScaleSweep(const RunContext& ctx, size_t n) {
  char setup[160];
  std::snprintf(setup, sizeof(setup),
                "N=%zu, range=0.2*sqrt(100/N) (degree ~12.6), T=0.1, sse, "
                "update every %lld units",
                n, static_cast<long long>(kRoundInterval));
  Driver driver(ctx, "Scale sweep: snapshot over time", setup);

  const int num_rounds = static_cast<int>(ctx.Scaled(10));
  // One deployment at the 100k tier (a second one only adds memory, not
  // information); two seeds below it so the seed loop exercises the
  // parallel engine the same way the figure drivers do.
  const int seeds = n >= 100000 ? 1 : 2;
  const auto runs = exec::ParallelMap<TierRun>(
      static_cast<size_t>(seeds), ctx.jobs,
      [&](size_t s) { return RunTier(n, kBaseSeed + s, num_rounds); });

  double edges = 0.0, active = 0.0, election_msgs = 0.0;
  for (const TierRun& run : runs) {
    edges += static_cast<double>(run.edges);
    active += static_cast<double>(run.election.num_active);
    election_msgs += run.election.avg_messages_per_node;
  }
  edges /= seeds;
  active /= seeds;
  election_msgs /= seeds;
  std::printf("nodes %zu  directed edges %.0f  mean degree %.2f\n", n, edges,
              edges / static_cast<double>(n));
  std::printf("election: snapshot size %.1f  msgs/node %.2f\n\n", active,
              election_msgs);

  TablePrinter table({"round", "start", "snapshot size", "spurious",
                      "msgs/node"});
  const size_t rounds =
      runs.empty() ? 0 : runs.front().rounds.size();
  for (size_t r = 0; r < rounds; ++r) {
    double start = 0.0, size = 0.0, spurious = 0.0, msgs = 0.0;
    int have = 0;
    for (const TierRun& run : runs) {
      if (r >= run.rounds.size()) continue;
      ++have;
      start += static_cast<double>(run.rounds[r].round_start);
      size += static_cast<double>(run.rounds[r].snapshot_size);
      spurious += static_cast<double>(run.rounds[r].num_spurious);
      msgs += run.rounds[r].avg_messages_per_node;
    }
    if (have == 0) continue;
    table.AddRow({std::to_string(r), TablePrinter::Num(start / have, 0),
                  TablePrinter::Num(size / have, 1),
                  TablePrinter::Num(spurious / have, 1),
                  TablePrinter::Num(msgs / have, 2)});
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace snapq::bench

SNAPQ_BENCHMARK(scale_sweep_n001k,
                "Scale tier: fig14-style maintenance at 1k nodes") {
  snapq::bench::RunScaleSweep(ctx, 1000);
}

SNAPQ_BENCHMARK(scale_sweep_n010k,
                "Scale tier: fig14-style maintenance at 10k nodes") {
  snapq::bench::RunScaleSweep(ctx, 10000);
}

SNAPQ_BENCHMARK(scale_sweep_n100k,
                "Scale tier: fig14-style maintenance at 100k nodes") {
  snapq::bench::RunScaleSweep(ctx, 100000);
}
