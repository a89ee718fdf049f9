// Whole-system integration: the full deployment lifecycle over drifting
// data — train, elect, run a continuous snapshot query while maintenance
// rounds keep the representative set fresh and nodes fail — driven
// entirely through the public SensorNetwork API.
#include <gtest/gtest.h>

#include "api/network.h"
#include "data/random_walk.h"

namespace snapq {
namespace {

NetworkConfig BaseConfig(uint64_t seed) {
  NetworkConfig config;
  config.num_nodes = 30;
  config.transmission_range = 0.8;
  config.snapshot.threshold = 1.0;
  config.snapshot.max_wait = 8;
  config.snapshot.rule4_hard_cap = 16;
  config.snapshot.heartbeat_miss_limit = 1;
  config.seed = seed;
  return config;
}

Dataset WalkData(uint64_t seed, size_t nodes, size_t horizon,
                 size_t classes) {
  Rng rng(seed);
  RandomWalkConfig walk;
  walk.num_nodes = nodes;
  walk.num_classes = classes;
  walk.horizon = horizon;
  Result<Dataset> ds = Dataset::Create(GenerateRandomWalk(walk, rng).series);
  return std::move(ds).value();
}

TEST(IntegrationTest, ContinuousSnapshotQueryAcrossMaintenanceAndFailures) {
  SensorNetwork net(BaseConfig(17));
  ASSERT_TRUE(net.AttachDataset(WalkData(17, 30, 1001, 3)).ok());
  net.ScheduleTrainingBroadcasts(0, 10);
  net.RunUntil(50);
  const ElectionStats election = net.RunElection(50);
  ASSERT_EQ(election.num_undefined, 0u);
  ASSERT_GT(election.num_passive, 0u);

  net.ScheduleMaintenance(net.now() + 100, 1000, 100);

  // Kill a representative mid-run: maintenance must heal around it.
  net.sim().ScheduleAt(350, [&net] {
    const SnapshotView view = net.Snapshot();
    for (NodeId i = 0; i < net.num_nodes(); ++i) {
      if (view.node(i).mode == NodeMode::kActive &&
          !view.represents(i).empty()) {
        net.sim().Kill(i);
        return;
      }
    }
  });

  std::vector<EpochResult> epochs;
  const Result<int64_t> scheduled = net.RunContinuousQuery(
      "SELECT avg(value) FROM sensors WHERE loc IN EVERYWHERE "
      "SAMPLE INTERVAL 50s FOR 800s USE SNAPSHOT",
      net.now() + 10,
      [&epochs](const EpochResult& e) { epochs.push_back(e); });
  ASSERT_TRUE(scheduled.ok());
  EXPECT_EQ(*scheduled, 16);

  net.RunAll();
  ASSERT_EQ(epochs.size(), 16u);

  size_t healthy_epochs = 0;
  for (const EpochResult& e : epochs) {
    ASSERT_TRUE(e.result.aggregate.has_value());
    // The snapshot answer must track the ground truth: both are averages
    // over the same region; model error is bounded by T per node.
    if (e.result.coverage >= 0.9) {
      ++healthy_epochs;
      EXPECT_NEAR(*e.result.aggregate, *e.result.true_aggregate,
                  5.0 + std::abs(*e.result.true_aggregate) * 0.05)
          << "epoch " << e.epoch;
    }
    // Snapshot execution never uses more nodes than the network has.
    EXPECT_LE(e.result.participants, 30u);
  }
  // The representative death may dent a couple of epochs; the run as a
  // whole stays healthy.
  EXPECT_GE(healthy_epochs, 12u);

  // After the full run, the snapshot is still coherent.
  const SnapshotView final_view = net.Snapshot();
  size_t live_undefined = 0;
  for (NodeId i = 0; i < 30; ++i) {
    if (net.sim().alive(i) &&
        final_view.node(i).mode == NodeMode::kUndefined) {
      ++live_undefined;
    }
  }
  EXPECT_EQ(live_undefined, 0u);
}

TEST(IntegrationTest, LossyLongRunStaysCoherent) {
  NetworkConfig config = BaseConfig(23);
  config.loss_probability = 0.2;
  config.snoop_probability = 0.05;
  SensorNetwork net(config);
  ASSERT_TRUE(net.AttachDataset(WalkData(23, 30, 801, 3)).ok());
  net.ScheduleTrainingBroadcasts(0, 10);
  net.RunUntil(50);
  net.RunElection(50);
  net.ScheduleMaintenance(net.now() + 80, 800, 80);
  net.RunAll();

  const SnapshotView view = net.Snapshot();
  EXPECT_EQ(view.CountUndefined(), 0u);
  // Spurious beliefs bounded and every node answerable.
  EXPECT_LE(view.CountSpurious(), 8u);
  const Result<QueryResult> q = net.Query(
      "SELECT count(*) FROM sensors WHERE loc IN EVERYWHERE USE SNAPSHOT");
  ASSERT_TRUE(q.ok());
  EXPECT_GE(q->coverage, 0.9);
}

TEST(IntegrationTest, EnergyRunDiesGracefully) {
  NetworkConfig config = BaseConfig(31);
  config.energy = EnergyModel();  // 500-transmission batteries
  SensorNetwork net(config);
  ASSERT_TRUE(net.AttachDataset(WalkData(31, 30, 2001, 1)).ok());
  net.ScheduleTrainingBroadcasts(0, 10);
  net.RunUntil(50);
  net.RunElection(50);
  net.ScheduleMaintenance(net.now() + 100, 2000, 100);
  // Heavy query load drains the network.
  ExecutionOptions options;
  options.charge_energy = true;
  for (Time t = 150; t < 2000; t += 2) {
    net.RunUntil(t);
    (void)net.Query(
        "SELECT sum(value) FROM sensors WHERE loc IN EVERYWHERE "
        "USE SNAPSHOT",
        options);
  }
  net.RunAll();
  // Whatever died, the simulation reached the horizon without protocol
  // assertions firing, and the surviving nodes are in defined states.
  const SnapshotView view = net.Snapshot();
  for (NodeId i = 0; i < 30; ++i) {
    if (net.sim().alive(i)) {
      EXPECT_NE(view.node(i).mode, NodeMode::kUndefined) << "node " << i;
    }
  }
}

}  // namespace
}  // namespace snapq
