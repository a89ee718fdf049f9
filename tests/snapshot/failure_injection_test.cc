// Failure injection: sever one protocol message type at a time and verify
// the election's recovery rules leave the network in a safe, settled
// state. The key protocol safety property throughout: no live node ends
// UNDEFINED, and under the snapshot rule every live node still has a
// responder (itself or a live representative).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "snapshot/election.h"

namespace snapq {
namespace {

SnapshotConfig TestConfig() {
  SnapshotConfig config;
  config.threshold = 1.0;
  config.max_wait = 6;
  config.rule4_hard_cap = 12;
  config.heartbeat_miss_limit = 1;
  return config;
}

struct Net {
  std::unique_ptr<Simulator> sim;
  std::vector<std::unique_ptr<SnapshotAgent>> agents;

  explicit Net(size_t n) {
    std::vector<Point> positions;
    for (size_t i = 0; i < n; ++i) {
      positions.push_back({0.05 * static_cast<double>(i), 0.0});
    }
    sim = std::make_unique<Simulator>(std::move(positions),
                                      std::vector<double>(n, 10.0),
                                      SimConfig{});
    for (NodeId i = 0; i < n; ++i) {
      agents.push_back(std::make_unique<SnapshotAgent>(
          i, sim.get(), TestConfig(), 500 + i));
      agents.back()->Install();
      agents.back()->SetMeasurement(40.0 + i);
    }
    // All-pairs exact models.
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        if (i == j) continue;
        const double vi = agents[i]->measurement();
        const double vj = agents[j]->measurement();
        agents[i]->models().cache().Observe(j, vi - 1, vj - 1, 0);
        agents[i]->models().cache().Observe(j, vi + 1, vj + 1, 0);
      }
    }
  }

  ElectionStats Elect() {
    return RunGlobalElection(*sim, agents, sim->now(), TestConfig());
  }

  void ExpectSafeOutcome(const ElectionStats& stats) {
    EXPECT_EQ(stats.num_undefined, 0u);
    EXPECT_EQ(stats.num_active + stats.num_passive, agents.size());
    const SnapshotView view = CaptureSnapshot(*sim);
    for (NodeId i = 0; i < agents.size(); ++i) {
      EXPECT_NE(view.ResponderFor(i), kInvalidNode) << "node " << i;
    }
  }
};

TEST(FailureInjectionTest, AllInvitationsLost) {
  Net net(10);
  net.sim->SetTypeLoss(MessageType::kInvitation, 1.0);
  const ElectionStats stats = net.Elect();
  // Nobody hears anybody: every node represents itself.
  EXPECT_EQ(stats.num_active, 10u);
  net.ExpectSafeOutcome(stats);
}

TEST(FailureInjectionTest, AllCandListsLost) {
  Net net(10);
  net.sim->SetTypeLoss(MessageType::kCandList, 1.0);
  const ElectionStats stats = net.Elect();
  // No offers arrive: everyone self-represents (Rule-1).
  EXPECT_EQ(stats.num_active, 10u);
  net.ExpectSafeOutcome(stats);
}

TEST(FailureInjectionTest, AllAcceptsLostHealedByStayActive) {
  Net net(10);
  net.sim->SetTypeLoss(MessageType::kAccept, 1.0);
  const ElectionStats stats = net.Elect();
  // The representative never hears the accepts, but the Rule-3 StayActive
  // notification heals the membership. The winner's own (lost) accept
  // leaves at most one extra lone active — its chosen representative never
  // learned of it.
  EXPECT_LE(stats.num_active, 2u);
  net.ExpectSafeOutcome(stats);
  // The next maintenance round merges the lone active under the winner
  // (StayActive healing again substitutes for the severed accepts).
  for (auto& a : net.agents) a->MaintenanceTick();
  net.sim->RunAll();
  EXPECT_EQ(CaptureSnapshot(*net.sim).CountActive(), 1u);
}

TEST(FailureInjectionTest, AllStayActivesLost) {
  Net net(10);
  net.sim->SetTypeLoss(MessageType::kStayActive, 1.0);
  const ElectionStats stats = net.Elect();
  // Rule-3 can never complete its handshake... but members still hear the
  // representative's RepAck broadcasts triggered by Accepts? No: acks are
  // only triggered by StayActive. Everyone times out via Rule-4.
  EXPECT_EQ(stats.num_undefined, 0u);
  net.ExpectSafeOutcome(stats);
}

TEST(FailureInjectionTest, AllRepAcksLost) {
  Net net(10);
  net.sim->SetTypeLoss(MessageType::kRepAck, 1.0);
  const ElectionStats stats = net.Elect();
  // No acknowledgment ever arrives: Rule-4 forces every would-be-passive
  // node ACTIVE ("Lost acknowledgments are handled by Rule-4").
  EXPECT_EQ(stats.num_undefined, 0u);
  EXPECT_EQ(stats.num_active, 10u);
  net.ExpectSafeOutcome(stats);
}

TEST(FailureInjectionTest, AllRecallsLostCreatesBoundedSpurious) {
  Net net(10);
  net.sim->SetTypeLoss(MessageType::kRecall, 1.0);
  const ElectionStats stats = net.Elect();
  net.ExpectSafeOutcome(stats);
  // Lost Rule-2 recalls are exactly the paper's spurious-representative
  // mechanism (Fig 13); the epoch-stamped RepAck self-correction bounds
  // them, and query-time filtering hides the rest.
  EXPECT_LE(stats.num_spurious, 10u);
}

TEST(FailureInjectionTest, HeartbeatsLostTriggersReelectionNotDeadlock) {
  Net net(6);
  const ElectionStats stats = net.Elect();
  ASSERT_EQ(stats.num_active, 1u);
  net.sim->SetTypeLoss(MessageType::kHeartbeat, 1.0);
  // Three maintenance rounds: every heartbeat lost -> timeout -> local
  // re-elections (which succeed; only heartbeats are severed).
  for (int round = 0; round < 3; ++round) {
    for (auto& a : net.agents) a->MaintenanceTick();
    net.sim->RunAll();
  }
  const SnapshotView view = CaptureSnapshot(*net.sim);
  EXPECT_EQ(view.CountUndefined(), 0u);
  for (NodeId i = 0; i < 6; ++i) {
    EXPECT_NE(view.ResponderFor(i), kInvalidNode);
  }
}

TEST(FailureInjectionTest, HeartbeatRepliesLostToleratedThenReelected) {
  Net net(6);
  net.Elect();
  net.sim->SetTypeLoss(MessageType::kHeartbeatReply, 1.0);
  for (int round = 0; round < 3; ++round) {
    for (auto& a : net.agents) a->MaintenanceTick();
    net.sim->RunAll();
  }
  const SnapshotView view = CaptureSnapshot(*net.sim);
  EXPECT_EQ(view.CountUndefined(), 0u);
}

TEST(FailureInjectionTest, NodeDiesMidElection) {
  Net net(8);
  // Kill the would-be winner right after the invitation phase.
  net.sim->ScheduleAt(1, [&net] { net.sim->Kill(7); });
  for (auto& a : net.agents) a->BeginElection(0);
  net.sim->RunAll();
  const SnapshotView view = CaptureSnapshot(*net.sim);
  // Some nodes may have accepted node 7 before it died and never heard
  // back: Rule-4 turns them ACTIVE. Nobody is left UNDEFINED.
  EXPECT_EQ(view.CountUndefined(), 0u);
  for (NodeId i = 0; i < 7; ++i) {
    if (view.node(i).mode == NodeMode::kPassive) {
      EXPECT_TRUE(net.sim->alive(view.node(i).representative));
    }
  }
}

TEST(FailureInjectionTest, HalfTheNetworkDiesMidElection) {
  Net net(12);
  net.sim->ScheduleAt(2, [&net] {
    for (NodeId i = 0; i < 6; ++i) net.sim->Kill(2 * i);
  });
  for (auto& a : net.agents) a->BeginElection(0);
  net.sim->RunAll();
  const SnapshotView view = CaptureSnapshot(*net.sim);
  size_t live_undefined = 0;
  for (NodeId i = 0; i < 12; ++i) {
    if (net.sim->alive(i) && view.node(i).mode == NodeMode::kUndefined) {
      ++live_undefined;
    }
  }
  EXPECT_EQ(live_undefined, 0u);
}

}  // namespace
}  // namespace snapq
