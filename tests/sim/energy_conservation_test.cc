// The ledger's conservation invariant, property-tested under a randomized
// 100-node workload (election, maintenance, queries, loss, snooping,
// forced kills, direct drains): per node, the ledger's remaining-charge
// mirror equals the battery BITWISE, and the attribution cells re-sum to
// `initial_battery - remaining` EXACTLY — no epsilon. The costs are
// dyadic rationals (1, 1/4, 1/8), so every partial sum is exactly
// representable and the invariant is independent of summation order.
//
// The same workloads also pin --jobs determinism: each run's energy map
// must be byte-identical whether the runs executed on 1 worker or 4.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "api/network.h"
#include "data/random_walk.h"
#include "exec/parallel_sweep.h"
#include "obs/energy_ledger.h"
#include "query/executor.h"

namespace snapq {
namespace {

constexpr size_t kNodes = 100;
constexpr Time kHorizon = 200;

/// Builds a deployment with dyadic energy costs, runs a mixed workload
/// seeded by `seed`, checks the conservation invariant against the live
/// batteries, and returns the ledger snapshot for cross-run folding.
obs::EnergyLedgerSnapshot RunWorkload(uint64_t seed) {
  NetworkConfig config;
  config.num_nodes = kNodes;
  config.transmission_range = 0.5;
  config.loss_probability = 0.1;
  config.snoop_probability = 0.3;
  config.energy.tx_cost = 1.0;
  config.energy.rx_cost = 0.25;
  config.energy.cache_op_cost = 0.125;
  config.energy.initial_battery = 500.0;
  config.snapshot.threshold = 1.0;
  config.snapshot.heartbeat_miss_limit = 1;
  config.seed = seed;
  SensorNetwork net(config);
  obs::EnergyLedger& ledger = net.EnableEnergyLedger();

  Rng data_rng = Rng(seed).SplitNamed("data");
  RandomWalkConfig walk;
  walk.num_nodes = kNodes;
  walk.num_classes = 4;
  walk.horizon = static_cast<size_t>(kHorizon) + 1;
  Result<Dataset> dataset =
      Dataset::Create(GenerateRandomWalk(walk, data_rng).series);
  SNAPQ_CHECK(dataset.ok());
  SNAPQ_CHECK(net.AttachDataset(std::move(*dataset)).ok());

  net.ScheduleTrainingBroadcasts(0, 10);
  net.RunUntil(20);
  net.RunElection(20);  // advances sim time while the rounds settle
  net.ScheduleMaintenance(net.now() + 25, kHorizon, 25);

  Rng rng = Rng(seed).SplitNamed("workload");
  for (Time t = net.now() + 5; t < kHorizon; t += 5) {
    net.RunUntil(t);
    // A query through the executor (per-reply DrainAs charges).
    ExecutionOptions options;
    options.charge_energy = true;
    NodeId sink = static_cast<NodeId>(
        rng.UniformInt(0, static_cast<int64_t>(kNodes) - 1));
    for (int tries = 0; tries < 50 && !net.sim().alive(sink); ++tries) {
      sink = static_cast<NodeId>(
          rng.UniformInt(0, static_cast<int64_t>(kNodes) - 1));
    }
    options.sink = sink;
    const Point center{rng.NextDouble(), rng.NextDouble()};
    net.executor().ExecuteRegion(Rect::CenteredSquare(center, 0.4),
                                 /*use_snapshot=*/rng.NextDouble() < 0.5,
                                 AggregateFunction::kSum, options);
    // Direct drains with dyadic amounts; large ones force overdraft kills
    // (the applied charge is then the remainder, still dyadic).
    const NodeId victim = static_cast<NodeId>(
        rng.UniformInt(0, static_cast<int64_t>(kNodes) - 1));
    net.sim().Drain(victim, rng.NextDouble() < 0.2 ? 256.0 : 0.5);
    // Occasional forced kill (discarded charge lands in the killed cell).
    if (rng.NextDouble() < 0.05) {
      net.sim().Kill(static_cast<NodeId>(
          rng.UniformInt(0, static_cast<int64_t>(kNodes) - 1)));
    }
  }
  net.RunUntil(kHorizon);
  ledger.UpdateGauges(net.now());

  // -- The invariant: exact, bitwise, no epsilon ---------------------------
  double cells_total = 0.0;
  for (NodeId i = 0; i < static_cast<NodeId>(kNodes); ++i) {
    const double battery = net.sim().battery(i).remaining();
    EXPECT_EQ(ledger.remaining(i), battery) << "node " << i;
    double cell_sum = 0.0;
    for (size_t c = 0; c < obs::kEnergyCellsPerNode; ++c) {
      cell_sum += ledger.cell(i, c);
    }
    EXPECT_EQ(cell_sum, 500.0 - battery) << "node " << i;
    EXPECT_EQ(ledger.drained(i), cell_sum) << "node " << i;
    EXPECT_EQ(net.sim().alive(i), ledger.death_tick(i) < 0) << "node " << i;
    cells_total += cell_sum;
  }
  EXPECT_EQ(ledger.total_drained(), cells_total);
  // The workload's big drains and kills must actually have killed nodes,
  // or the died-now/already-dead paths were never exercised.
  EXPECT_GT(ledger.deaths(), 0u);
  EXPECT_EQ(ledger.deaths(), net.sim().metrics().node_deaths());

  return ledger.TakeSnapshot();
}

TEST(EnergyConservationTest, AttributedDrainsSumToBatteryDrainExactly) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    SCOPED_TRACE(seed);
    RunWorkload(seed);
  }
}

TEST(EnergyConservationTest, JobsFoldingIsBitIdentical) {
  // Every trial owns its ledger and writes its own energy map, so a
  // --jobs 4 run must produce each trial's map byte for byte as the
  // serial run does.
  const auto maps = [](int jobs) {
    const auto snaps = exec::ParallelMap<obs::EnergyLedgerSnapshot>(
        4, jobs, [](size_t i) { return RunWorkload(100 + i); });
    obs::EnergyMapMeta meta;
    meta.benchmark = "jobs_identity";
    meta.git_sha = "test";
    meta.t = kHorizon;
    std::vector<std::string> out;
    for (const obs::EnergyLedgerSnapshot& snap : snaps) {
      out.push_back(EnergyMapToJson(
          snap, std::vector<Point>(kNodes, Point{0.0, 0.0}), meta));
    }
    return out;
  };
  const std::vector<std::string> serial = maps(1);
  const std::vector<std::string> parallel = maps(4);
  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(parallel.size(), 4u);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "run " << i;
    EXPECT_NE(serial[i].find("\"runs\": 1,"), std::string::npos);
  }
  // Different seeds drain differently: the maps are not all one document.
  EXPECT_NE(serial[0], serial[1]);
}

}  // namespace
}  // namespace snapq
