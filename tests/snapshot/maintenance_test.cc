// Maintenance (§5.1) tests with failure injection: representative death,
// data drift forcing re-election, lone-active merging, energy-based
// resignation, and the six-message maintenance bound.
#include "snapshot/maintenance.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
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
  config.heartbeat_miss_limit = 1;  // deterministic single-round failover in tests
  return config;
}

struct Net {
  std::unique_ptr<Simulator> sim;
  std::vector<std::unique_ptr<SnapshotAgent>> agents;
  SnapshotConfig config;

  explicit Net(size_t n, SimConfig sim_config = {},
               SnapshotConfig cfg = TestConfig())
      : config(cfg) {
    std::vector<Point> positions;
    for (size_t i = 0; i < n; ++i) {
      positions.push_back({0.05 * static_cast<double>(i), 0.0});
    }
    sim = std::make_unique<Simulator>(std::move(positions),
                                      std::vector<double>(n, 10.0),
                                      sim_config);
    for (NodeId i = 0; i < n; ++i) {
      agents.push_back(
          std::make_unique<SnapshotAgent>(i, sim.get(), cfg, 700 + i));
      agents.back()->Install();
    }
  }

  void TeachAllPairs(double base) {
    for (NodeId i = 0; i < agents.size(); ++i) {
      agents[i]->SetMeasurement(base + i);
    }
    for (NodeId i = 0; i < agents.size(); ++i) {
      for (NodeId j = 0; j < agents.size(); ++j) {
        if (i == j) continue;
        const double vi = agents[i]->measurement();
        const double vj = agents[j]->measurement();
        agents[i]->models().cache().Observe(j, vi - 1, vj - 1, 0);
        agents[i]->models().cache().Observe(j, vi + 1, vj + 1, 0);
      }
    }
  }

  void Elect() { RunGlobalElection(*sim, agents, sim->now(), config); }

  void Tick() {
    for (auto& a : agents) a->MaintenanceTick();
    sim->RunAll();
  }
};

TEST(MaintenanceTest, HealthyNetworkStaysStable) {
  Net net(6);
  net.TeachAllPairs(10.0);
  net.Elect();
  const SnapshotView before = CaptureSnapshot(*net.sim);
  ASSERT_EQ(before.CountActive(), 1u);
  net.Tick();
  const SnapshotView after = CaptureSnapshot(*net.sim);
  EXPECT_EQ(after.CountActive(), 1u);
  EXPECT_EQ(after.CountSpurious(), 0u);
}

TEST(MaintenanceTest, HeartbeatsFlowFromPassiveToRep) {
  Net net(4);
  net.TeachAllPairs(10.0);
  net.Elect();
  const uint64_t hb_before = net.sim->metrics().sent(MessageType::kHeartbeat);
  const uint64_t reply_before =
      net.sim->metrics().sent(MessageType::kHeartbeatReply);
  net.Tick();
  EXPECT_EQ(net.sim->metrics().sent(MessageType::kHeartbeat), hb_before + 3);
  // One *batched* broadcast answers all three heartbeats.
  EXPECT_EQ(net.sim->metrics().sent(MessageType::kHeartbeatReply),
            reply_before + 1);
}

TEST(MaintenanceTest, RepresentativeDeathTriggersReelection) {
  Net net(5);
  net.TeachAllPairs(10.0);
  net.Elect();
  const SnapshotView view = CaptureSnapshot(*net.sim);
  ASSERT_EQ(view.CountActive(), 1u);
  // Find and kill the representative.
  NodeId rep = kInvalidNode;
  for (NodeId i = 0; i < 5; ++i) {
    if (view.node(i).mode == NodeMode::kActive) rep = i;
  }
  net.sim->Kill(rep);
  // First round: heartbeats go unanswered -> timeout -> local re-election.
  net.Tick();
  const SnapshotView healed = CaptureSnapshot(*net.sim);
  EXPECT_EQ(healed.CountUndefined(), 0u);
  // Everyone alive ends up represented again (or self-represented).
  size_t live_active = healed.CountActive();
  EXPECT_GE(live_active, 1u);
  for (NodeId i = 0; i < 5; ++i) {
    if (i == rep) continue;
    if (healed.node(i).mode == NodeMode::kPassive) {
      const NodeId r = healed.node(i).representative;
      EXPECT_NE(r, rep);
      EXPECT_TRUE(net.sim->alive(r));
    }
  }
}

TEST(MaintenanceTest, ModelDriftForcesReelection) {
  Net net(3);
  net.TeachAllPairs(10.0);
  net.Elect();
  const SnapshotView view = CaptureSnapshot(*net.sim);
  ASSERT_EQ(view.CountActive(), 1u);
  // Shift every PASSIVE node's value violently so the rep's estimate
  // misses by far more than T.
  for (NodeId i = 0; i < 3; ++i) {
    if (view.node(i).mode == NodeMode::kPassive) {
      net.agents[i]->SetMeasurement(10000.0 + i);
    }
  }
  net.Tick();
  const SnapshotView healed = CaptureSnapshot(*net.sim);
  EXPECT_EQ(healed.CountUndefined(), 0u);
  // Old representations were dropped: the drifted nodes re-elected. With
  // everyone drifted differently, models no longer hold and nodes go
  // ACTIVE (self-represented).
  EXPECT_GT(healed.CountActive(), 1u);
}

TEST(MaintenanceTest, LoneActivesMergeOverRounds) {
  // Start everyone ACTIVE with no training, then teach models and let
  // maintenance rounds merge lone actives under a shared representative.
  Net net(4);
  for (auto& a : net.agents) a->SetMeasurement(5.0);
  net.Elect();  // no models -> everyone ACTIVE
  ASSERT_EQ(CaptureSnapshot(*net.sim).CountActive(), 4u);
  net.TeachAllPairs(5.0);
  net.Tick();  // lone actives invite, one wins the pairwise ties
  net.Tick();  // stragglers merge in a second round
  const SnapshotView merged = CaptureSnapshot(*net.sim);
  EXPECT_LT(merged.CountActive(), 4u);
  EXPECT_EQ(merged.CountUndefined(), 0u);
}

TEST(MaintenanceTest, LowBatteryRepresentativeResigns) {
  SimConfig sim_config;
  sim_config.energy.initial_battery = 100.0;
  SnapshotConfig cfg = TestConfig();
  cfg.resign_battery_fraction = 0.5;  // resign below 50 units
  Net net(4, sim_config, cfg);
  net.TeachAllPairs(10.0);
  net.Elect();
  SnapshotView view = CaptureSnapshot(*net.sim);
  ASSERT_EQ(view.CountActive(), 1u);
  NodeId rep = kInvalidNode;
  for (NodeId i = 0; i < 4; ++i) {
    if (view.node(i).mode == NodeMode::kActive) rep = i;
  }
  // Drain the representative below the resignation threshold.
  net.sim->Drain(rep, net.sim->battery(rep).remaining() - 30.0);
  const uint64_t resigns_before =
      net.sim->metrics().sent(MessageType::kResign);
  net.Tick();
  EXPECT_EQ(net.sim->metrics().sent(MessageType::kResign),
            resigns_before + 1);
  EXPECT_TRUE(net.agents[rep]->resigned());
  EXPECT_TRUE(net.agents[rep]->represents().empty());
  // Released nodes re-elected somebody else (or themselves).
  const SnapshotView healed = CaptureSnapshot(*net.sim);
  for (NodeId i = 0; i < 4; ++i) {
    if (i == rep) continue;
    EXPECT_NE(healed.node(i).representative, rep) << "node " << i;
  }
}

TEST(MaintenanceTest, SixMessageBoundPerRound) {
  // §5.1: per maintained node, heartbeat + reply + invitation + cand list
  // + accept + ack = at most six messages per update. A representative
  // additionally answers one heartbeat per node it represents, so its
  // budget is six plus its represented-set size.
  Net net(8);
  net.TeachAllPairs(20.0);
  net.Elect();
  net.sim->ResetPerNodeCounters();
  net.Tick();
  for (NodeId i = 0; i < 8; ++i) {
    const size_t replies = net.agents[i]->represents().size();
    EXPECT_LE(net.sim->messages_sent_by(i), 6u + replies) << "node " << i;
    if (net.agents[i]->mode() == NodeMode::kPassive) {
      EXPECT_LE(net.sim->messages_sent_by(i), 6u) << "node " << i;
    }
  }
}

TEST(MaintenanceTest, RotationStepsDownAfterConfiguredRounds) {
  SnapshotConfig cfg = TestConfig();
  cfg.rotation_rounds = 2;
  cfg.rotation_cooldown = 2;
  Net net(4, {}, cfg);
  net.TeachAllPairs(10.0);
  net.Elect();
  SnapshotView view = CaptureSnapshot(*net.sim);
  ASSERT_EQ(view.CountActive(), 1u);
  NodeId rep = kInvalidNode;
  for (NodeId i = 0; i < 4; ++i) {
    if (view.node(i).mode == NodeMode::kActive) rep = i;
  }
  const uint64_t resigns_before =
      net.sim->metrics().sent(MessageType::kResign);
  net.Tick();  // round 1: rep serves
  EXPECT_EQ(net.sim->metrics().sent(MessageType::kResign), resigns_before);
  net.Tick();  // round 2: rotation_rounds reached -> step down
  EXPECT_EQ(net.sim->metrics().sent(MessageType::kResign),
            resigns_before + 1);
  EXPECT_TRUE(net.agents[rep]->represents().empty());
  EXPECT_GT(net.agents[rep]->rotation_cooldown_remaining(), 0);
  // Released members re-elect a DIFFERENT representative (the old one is
  // on cooldown and does not offer candidacy).
  const SnapshotView healed = CaptureSnapshot(*net.sim);
  EXPECT_EQ(healed.CountUndefined(), 0u);
  for (NodeId i = 0; i < 4; ++i) {
    if (i == rep) continue;
    if (healed.node(i).mode == NodeMode::kPassive) {
      EXPECT_NE(healed.node(i).representative, rep) << "node " << i;
    }
  }
}

TEST(MaintenanceTest, RotationCooldownExpiresAndNodeServesAgain) {
  SnapshotConfig cfg = TestConfig();
  cfg.rotation_rounds = 1;
  cfg.rotation_cooldown = 1;
  Net net(3, {}, cfg);
  net.TeachAllPairs(10.0);
  net.Elect();
  ASSERT_EQ(CaptureSnapshot(*net.sim).CountActive(), 1u);
  // Across many rounds with aggressive rotation, more than one node gets
  // to serve as a representative.
  std::set<NodeId> servers;
  for (int round = 0; round < 8; ++round) {
    net.Tick();
    for (NodeId i = 0; i < 3; ++i) {
      if (!net.agents[i]->represents().empty()) servers.insert(i);
    }
  }
  EXPECT_GE(servers.size(), 2u);
}

TEST(MaintenanceTest, RotationDisabledByDefault) {
  Net net(4);
  net.TeachAllPairs(10.0);
  net.Elect();
  const uint64_t resigns_before =
      net.sim->metrics().sent(MessageType::kResign);
  for (int round = 0; round < 6; ++round) net.Tick();
  EXPECT_EQ(net.sim->metrics().sent(MessageType::kResign), resigns_before);
  EXPECT_EQ(CaptureSnapshot(*net.sim).CountActive(), 1u);
}

TEST(MaintenanceDriverTest, SchedulesRoundsAndReportsStats) {
  Net net(5);
  net.TeachAllPairs(10.0);
  net.Elect();
  MaintenanceDriver driver(net.sim.get(), &net.agents, /*interval=*/50);
  std::vector<MaintenanceRoundStats> rounds;
  driver.ScheduleRounds(net.sim->now() + 10, net.sim->now() + 160,
                        [&rounds](const MaintenanceRoundStats& s) {
                          rounds.push_back(s);
                        });
  net.sim->RunAll();
  ASSERT_EQ(rounds.size(), 3u);
  for (const auto& r : rounds) {
    EXPECT_EQ(r.snapshot_size, 1u);
    EXPECT_EQ(r.num_spurious, 0u);
    EXPECT_LE(r.avg_messages_per_node, 6.0);
  }
  EXPECT_LT(rounds[0].round_start, rounds[1].round_start);
}

TEST(MaintenanceDriverDeathTest, RejectsNonPositiveInterval) {
  Net net(2);
  EXPECT_DEATH(MaintenanceDriver(net.sim.get(), &net.agents, 0),
               "SNAPQ_CHECK");
}

}  // namespace
}  // namespace snapq
