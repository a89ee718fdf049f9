// Message-level unit tests of the SnapshotAgent state machine: model
// building from overheard traffic, recall/ack handling, heartbeats,
// resignation and epoch-based stale-entry cleanup.
#include "snapshot/agent.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "snapshot/election.h"

namespace snapq {
namespace {

SnapshotConfig TestConfig() {
  SnapshotConfig config;
  config.threshold = 1.0;
  config.max_wait = 4;
  config.rule4_hard_cap = 8;
  config.heartbeat_timeout = 2;
  return config;
}

struct Pair {
  std::unique_ptr<Simulator> sim;
  std::vector<std::unique_ptr<SnapshotAgent>> agents;

  explicit Pair(size_t n = 3, SimConfig sim_config = {},
                SnapshotConfig config = TestConfig()) {
    std::vector<Point> positions;
    for (size_t i = 0; i < n; ++i) {
      positions.push_back({0.1 * static_cast<double>(i), 0.0});
    }
    sim = std::make_unique<Simulator>(std::move(positions),
                                      std::vector<double>(n, 10.0),
                                      sim_config);
    for (NodeId i = 0; i < n; ++i) {
      agents.push_back(
          std::make_unique<SnapshotAgent>(i, sim.get(), config, 50 + i));
      agents.back()->Install();
    }
  }
};

TEST(AgentTest, BroadcastValueTrainsNeighborsModels) {
  Pair p;
  // Node 1 announces twice while node 0's own value moves in lockstep.
  p.agents[0]->SetMeasurement(1.0);
  p.agents[1]->SetMeasurement(10.0);
  p.agents[1]->BroadcastValue();
  p.sim->RunAll();
  p.agents[0]->SetMeasurement(2.0);
  p.agents[1]->SetMeasurement(20.0);
  p.agents[1]->BroadcastValue();
  p.sim->RunAll();
  p.agents[0]->SetMeasurement(3.0);
  const std::optional<double> est = p.agents[0]->EstimateFor(1);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(*est, 30.0, 1e-9);
}

TEST(AgentTest, ObservationChargesCacheOp) {
  SimConfig sim_config;
  sim_config.energy.initial_battery = 100.0;
  Pair p(3, sim_config);
  p.agents[1]->SetMeasurement(10.0);
  p.agents[1]->BroadcastValue();
  p.sim->RunAll();
  // Receivers 0 and 2 each paid 0.1 for the cache op; sender paid 1 tx.
  EXPECT_NEAR(p.sim->battery(0).remaining(), 99.9, 1e-9);
  EXPECT_NEAR(p.sim->battery(1).remaining(), 99.0, 1e-9);
  EXPECT_EQ(p.sim->metrics().cache_ops(), 2u);
}

TEST(AgentTest, RecallRemovesRepresentation) {
  Pair p;
  // Seed node 0 with a represented node via a forged Accept.
  Message accept;
  accept.type = MessageType::kAccept;
  accept.from = 1;
  accept.to = 0;
  accept.epoch = 3;
  p.sim->Send(accept);
  p.sim->RunAll();
  EXPECT_TRUE(p.agents[0]->RepresentsSince(1).has_value());

  Message recall;
  recall.type = MessageType::kRecall;
  recall.from = 1;
  recall.to = 0;
  p.sim->Send(recall);
  p.sim->RunAll();
  EXPECT_FALSE(p.agents[0]->RepresentsSince(1).has_value());
}

TEST(AgentTest, RepAckFromNewerEpochCleansStaleEntry) {
  Pair p;
  // Node 0 believes it represents node 2 at epoch 3.
  Message accept;
  accept.type = MessageType::kAccept;
  accept.from = 2;
  accept.to = 0;
  accept.epoch = 3;
  p.sim->Send(accept);
  p.sim->RunAll();
  ASSERT_TRUE(p.agents[0]->RepresentsSince(2).has_value());

  // Node 1 broadcasts a RepAck claiming node 2 at newer epoch 5.
  Message ack;
  ack.type = MessageType::kRepAck;
  ack.from = 1;
  ack.to = kBroadcastId;
  ack.ids = {2};
  ack.epochs = {5};
  p.sim->Send(ack);
  p.sim->RunAll();
  EXPECT_FALSE(p.agents[0]->RepresentsSince(2).has_value());
}

TEST(AgentTest, RepAckFromOlderEpochDoesNotClean) {
  Pair p;
  Message accept;
  accept.type = MessageType::kAccept;
  accept.from = 2;
  accept.to = 0;
  accept.epoch = 7;
  p.sim->Send(accept);
  p.sim->RunAll();

  Message ack;
  ack.type = MessageType::kRepAck;
  ack.from = 1;
  ack.to = kBroadcastId;
  ack.ids = {2};
  ack.epochs = {4};  // older claim
  p.sim->Send(ack);
  p.sim->RunAll();
  EXPECT_TRUE(p.agents[0]->RepresentsSince(2).has_value());
}

TEST(AgentTest, HeartbeatAnsweredWithEstimateAndFineTunesModel) {
  Pair p;
  // Make node 0 an ACTIVE representative of node 1 with a trained model.
  p.agents[0]->SetMeasurement(1.0);
  p.agents[1]->SetMeasurement(10.0);
  p.agents[1]->BroadcastValue();
  p.sim->RunAll();
  p.agents[0]->SetMeasurement(2.0);
  p.agents[1]->SetMeasurement(20.0);
  p.agents[1]->BroadcastValue();
  p.sim->RunAll();
  p.agents[0]->BeginLocalReelection();  // puts node 0 into an election...
  p.sim->RunAll();                      // ...which ends with it ACTIVE
  ASSERT_EQ(p.agents[0]->mode(), NodeMode::kActive);

  p.agents[0]->SetMeasurement(3.0);
  Message hb;
  hb.type = MessageType::kHeartbeat;
  hb.from = 1;
  hb.to = 0;
  hb.value = 30.5;
  hb.epoch = 2;
  const uint64_t replies_before =
      p.sim->metrics().sent(MessageType::kHeartbeatReply);
  p.sim->Send(hb);
  p.sim->RunAll();
  EXPECT_EQ(p.sim->metrics().sent(MessageType::kHeartbeatReply),
            replies_before + 1);
  // Heal: the heartbeat implies node 1 considers node 0 its rep.
  EXPECT_TRUE(p.agents[0]->RepresentsSince(1).has_value());
}

TEST(AgentTest, PassiveNodeStaysSilentOnHeartbeat) {
  Pair p;
  // Node 0 is PASSIVE (forced via direct message exchange): it must not
  // answer heartbeats.
  // Build a 2-node election where node 1 represents node 0.
  p.agents[0]->SetMeasurement(5.0);
  p.agents[1]->SetMeasurement(50.0);
  // Teach node 1 an exact model of node 0.
  p.agents[1]->models().cache().Observe(0, 49.0, 4.0, 0);
  p.agents[1]->models().cache().Observe(0, 51.0, 6.0, 0);
  p.agents[0]->BeginElection(0);
  p.agents[1]->BeginElection(0);
  p.sim->RunAll();
  ASSERT_EQ(p.agents[0]->mode(), NodeMode::kPassive);

  Message hb;
  hb.type = MessageType::kHeartbeat;
  hb.from = 2;
  hb.to = 0;
  hb.value = 1.0;
  const uint64_t replies_before =
      p.sim->metrics().sent(MessageType::kHeartbeatReply);
  p.sim->Send(hb);
  p.sim->RunAll();
  EXPECT_EQ(p.sim->metrics().sent(MessageType::kHeartbeatReply),
            replies_before);
}

TEST(AgentTest, ResignReleasesRepresentedNodes) {
  Pair p;
  // Node 1 represents node 0 (elected as above).
  p.agents[0]->SetMeasurement(5.0);
  p.agents[1]->SetMeasurement(50.0);
  p.agents[1]->models().cache().Observe(0, 49.0, 4.0, 0);
  p.agents[1]->models().cache().Observe(0, 51.0, 6.0, 0);
  p.agents[0]->BeginElection(0);
  p.agents[1]->BeginElection(0);
  p.sim->RunAll();
  ASSERT_EQ(p.agents[0]->representative(), 1u);

  // Node 1 resigns and dies: node 0 must start a re-election and, with
  // nobody else offering, end up ACTIVE (self-healing after rep failure).
  Message resign;
  resign.type = MessageType::kResign;
  resign.from = 1;
  resign.to = kBroadcastId;
  resign.ids = {0};
  p.sim->Send(resign);
  p.sim->Kill(1);
  p.sim->RunAll();
  EXPECT_EQ(p.agents[0]->mode(), NodeMode::kActive);
}

TEST(AgentTest, SnoopedHeartbeatOnlyTrainsModel) {
  SimConfig sim_config;
  sim_config.snoop_probability = 1.0;
  Pair p(3, sim_config);
  p.agents[2]->SetMeasurement(7.0);
  // Heartbeat 0 -> 1; node 2 snoops. Node 2 must not reply but should
  // cache the observation.
  Message hb;
  hb.type = MessageType::kHeartbeat;
  hb.from = 0;
  hb.to = 1;
  hb.value = 3.5;
  p.sim->Send(hb);
  p.sim->RunAll();
  EXPECT_NE(p.agents[2]->models().cache().Line(0), nullptr);
  EXPECT_EQ(p.sim->metrics().sent(MessageType::kHeartbeatReply), 0u);
}

TEST(AgentTest, InfoReflectsState) {
  Pair p;
  p.agents[0]->SetMeasurement(4.0);
  const SnapshotView::NodeInfo info = CaptureSnapshot(*p.sim).node(0);
  EXPECT_EQ(info.mode, NodeMode::kUndefined);
  EXPECT_EQ(info.representative, 0u);
  EXPECT_TRUE(info.alive);
  EXPECT_TRUE(p.agents[0]->represents().empty());
}

TEST(AgentTest, LoneActiveDetection) {
  Pair p;
  p.agents[0]->BeginLocalReelection();
  p.sim->RunAll();
  EXPECT_EQ(p.agents[0]->mode(), NodeMode::kActive);
  EXPECT_TRUE(p.agents[0]->IsLoneActive());
}

TEST(AgentTest, DeadAgentIgnoresMessages) {
  Pair p;
  p.sim->Kill(0);
  Message accept;
  accept.type = MessageType::kAccept;
  accept.from = 1;
  accept.to = 0;
  p.sim->Send(accept);
  p.sim->RunAll();
  EXPECT_TRUE(p.agents[0]->represents().empty());
}

}  // namespace
}  // namespace snapq
