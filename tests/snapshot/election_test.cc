// Election protocol tests, including the paper's §5 worked example
// (Figures 3 and 4) asserted node by node.
#include "snapshot/election.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>
#include <vector>

#include "net/topology.h"
#include "snapshot/agent.h"

namespace snapq {
namespace {

struct Harness {
  std::unique_ptr<Simulator> sim;
  std::vector<std::unique_ptr<SnapshotAgent>> agents;

  Harness(size_t n, const SnapshotConfig& config, SimConfig sim_config = {},
          std::vector<Point> positions = {}, double range = 10.0) {
    if (positions.empty()) {
      // Default: everyone in range of everyone.
      for (size_t i = 0; i < n; ++i) {
        positions.push_back(
            {static_cast<double>(i) * 0.01, 0.0});
      }
    }
    sim = std::make_unique<Simulator>(
        std::move(positions), std::vector<double>(n, range), sim_config);
    for (NodeId i = 0; i < n; ++i) {
      agents.push_back(
          std::make_unique<SnapshotAgent>(i, sim.get(), config, 1000 + i));
      agents.back()->Install();
    }
  }

  /// Injects history so that `rep` holds an exact predictive model of
  /// `target` (slope 1 through their current values).
  void TeachModel(NodeId rep, NodeId target) {
    const double vi = agents[rep]->measurement();
    const double vj = agents[target]->measurement();
    agents[rep]->models().cache().Observe(target, vi - 1.0, vj - 1.0, 0);
    agents[rep]->models().cache().Observe(target, vi + 1.0, vj + 1.0, 0);
  }
};

SnapshotConfig TestConfig() {
  SnapshotConfig config;
  config.threshold = 1.0;
  config.max_wait = 6;
  config.rule4_hard_cap = 16;
  return config;
}

// ---------------------------------------------------------------------------
// The paper's worked example. Paper nodes N1..N8 map to ids 0..7. The
// candidate lists of Figure 3:
//   Cand_1={N2}  Cand_2={}  Cand_3={N4,N6}  Cand_4={N1,N2,N3,N5}
//   Cand_5={N8}  Cand_6={N7}  Cand_7={N8}  Cand_8={}
// Expected final state (Figure 4): representatives N3, N4, N7 with
// N4 -> {N1,N2,N5}, N3 -> {N6}, N7 -> {N8}; everyone else PASSIVE.
// ---------------------------------------------------------------------------

class PaperWalkthrough : public ::testing::Test {
 protected:
  void RunExample(Harness& h) {
    // Distinct measurements so injected models are node-specific.
    for (NodeId i = 0; i < 8; ++i) {
      h.agents[i]->SetMeasurement(100.0 + 10.0 * i);
    }
    // Candidate relations from Figure 3 (0-based).
    h.TeachModel(0, 1);
    h.TeachModel(2, 3);
    h.TeachModel(2, 5);
    h.TeachModel(3, 0);
    h.TeachModel(3, 1);
    h.TeachModel(3, 2);
    h.TeachModel(3, 4);
    h.TeachModel(4, 7);
    h.TeachModel(5, 6);
    h.TeachModel(6, 7);
    RunGlobalElection(*h.sim, h.agents, 0, TestConfig());
  }
};

TEST_F(PaperWalkthrough, FinalRepresentativesMatchFigure4) {
  Harness h(8, TestConfig());
  RunExample(h);
  const SnapshotView view = CaptureSnapshot(*h.sim);
  EXPECT_EQ(view.CountActive(), 3u);
  EXPECT_EQ(view.node(2).mode, NodeMode::kActive);  // N3
  EXPECT_EQ(view.node(3).mode, NodeMode::kActive);  // N4
  EXPECT_EQ(view.node(6).mode, NodeMode::kActive);  // N7
  for (NodeId passive : {0u, 1u, 4u, 5u, 7u}) {
    EXPECT_EQ(view.node(passive).mode, NodeMode::kPassive)
        << "node " << passive;
  }
}

TEST_F(PaperWalkthrough, RepresentationSetsMatchFigure4) {
  Harness h(8, TestConfig());
  RunExample(h);
  const SnapshotView view = CaptureSnapshot(*h.sim);
  auto keys = [](std::span<const SnapshotView::Entry> entries) {
    std::set<NodeId> out;
    for (const SnapshotView::Entry& entry : entries) out.insert(entry.member);
    return out;
  };
  EXPECT_EQ(keys(view.represents(3)), (std::set<NodeId>{0, 1, 4}));
  EXPECT_EQ(keys(view.represents(2)), (std::set<NodeId>{5}));
  EXPECT_EQ(keys(view.represents(6)), (std::set<NodeId>{7}));
}

TEST_F(PaperWalkthrough, RepresentativePointersAreConsistent) {
  Harness h(8, TestConfig());
  RunExample(h);
  const SnapshotView view = CaptureSnapshot(*h.sim);
  EXPECT_EQ(view.node(0).representative, 3u);
  EXPECT_EQ(view.node(1).representative, 3u);
  EXPECT_EQ(view.node(4).representative, 3u);
  EXPECT_EQ(view.node(5).representative, 2u);
  EXPECT_EQ(view.node(7).representative, 6u);  // tie N5/N7 -> larger id
  EXPECT_EQ(view.CountSpurious(), 0u);
}

TEST_F(PaperWalkthrough, AtMostFiveMessagesPerNode) {
  // Table 2: invitation + cand list + accept + up to two refinement
  // messages = five per node under reliable communication.
  Harness h(8, TestConfig());
  RunExample(h);
  for (NodeId i = 0; i < 8; ++i) {
    EXPECT_LE(h.sim->messages_sent_by(i), 5u) << "node " << i;
  }
}

// ---------------------------------------------------------------------------
// Structural / property tests on randomized instances.
// ---------------------------------------------------------------------------

TEST(ElectionTest, NoOffersMakesEveryoneActive) {
  Harness h(5, TestConfig());
  for (NodeId i = 0; i < 5; ++i) h.agents[i]->SetMeasurement(i * 100.0);
  const ElectionStats stats = RunGlobalElection(*h.sim, h.agents, 0,
                                                TestConfig());
  EXPECT_EQ(stats.num_active, 5u);
  EXPECT_EQ(stats.num_passive, 0u);
  EXPECT_EQ(stats.num_undefined, 0u);
}

TEST(ElectionTest, PerfectModelsElectSingleRepresentative) {
  Harness h(6, TestConfig());
  for (NodeId i = 0; i < 6; ++i) h.agents[i]->SetMeasurement(50.0 + i);
  for (NodeId i = 0; i < 6; ++i) {
    for (NodeId j = 0; j < 6; ++j) {
      if (i != j) h.TeachModel(i, j);
    }
  }
  const ElectionStats stats = RunGlobalElection(*h.sim, h.agents, 0,
                                                TestConfig());
  EXPECT_EQ(stats.num_active, 1u);
  EXPECT_EQ(stats.num_passive, 5u);
  // All candidate lists tie at length 5: the largest id wins everywhere
  // except at the winner itself (mutual-pair Rule 0).
  const SnapshotView view = CaptureSnapshot(*h.sim);
  EXPECT_EQ(view.node(0).representative, 5u);
  EXPECT_EQ(view.node(5).mode, NodeMode::kActive);
}

TEST(ElectionTest, DisconnectedNodesStayActive) {
  // Two clusters out of range of each other.
  std::vector<Point> positions = {{0, 0}, {0.1, 0}, {5, 0}, {5.1, 0}};
  Harness h(4, TestConfig(), {}, positions, /*range=*/0.5);
  for (NodeId i = 0; i < 4; ++i) h.agents[i]->SetMeasurement(10.0 + i);
  h.TeachModel(0, 1);
  h.TeachModel(2, 3);
  RunGlobalElection(*h.sim, h.agents, 0, TestConfig());
  const SnapshotView view = CaptureSnapshot(*h.sim);
  // One representative per cluster.
  EXPECT_EQ(view.CountActive(), 2u);
  EXPECT_EQ(view.node(1).representative, 0u);
  EXPECT_EQ(view.node(3).representative, 2u);
}

TEST(ElectionTest, EveryNodeSettlesUnderHeavyLoss) {
  SimConfig sim_config;
  sim_config.loss_probability = 0.6;
  sim_config.seed = 99;
  Harness h(20, TestConfig(), sim_config);
  for (NodeId i = 0; i < 20; ++i) h.agents[i]->SetMeasurement(5.0 + i);
  for (NodeId i = 0; i < 20; ++i) {
    for (NodeId j = 0; j < 20; ++j) {
      if (i != j) h.TeachModel(i, j);
    }
  }
  const ElectionStats stats = RunGlobalElection(*h.sim, h.agents, 0,
                                                TestConfig());
  EXPECT_EQ(stats.num_undefined, 0u);
  EXPECT_EQ(stats.num_active + stats.num_passive, 20u);
}

TEST(ElectionTest, TotalLossMakesEveryoneActive) {
  SimConfig sim_config;
  sim_config.loss_probability = 1.0;
  Harness h(6, TestConfig(), sim_config);
  for (NodeId i = 0; i < 6; ++i) h.agents[i]->SetMeasurement(1.0);
  for (NodeId i = 0; i < 6; ++i) {
    for (NodeId j = 0; j < 6; ++j) {
      if (i != j) h.TeachModel(i, j);
    }
  }
  const ElectionStats stats = RunGlobalElection(*h.sim, h.agents, 0,
                                                TestConfig());
  EXPECT_EQ(stats.num_active, 6u);
  EXPECT_EQ(stats.num_undefined, 0u);
}

TEST(ElectionTest, DeadNodesDoNotParticipate) {
  Harness h(4, TestConfig());
  for (NodeId i = 0; i < 4; ++i) h.agents[i]->SetMeasurement(20.0 + i);
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = 0; j < 4; ++j) {
      if (i != j) h.TeachModel(i, j);
    }
  }
  h.sim->Kill(3);  // the would-be winner (largest id)
  const ElectionStats stats = RunGlobalElection(*h.sim, h.agents, 0,
                                                TestConfig());
  const SnapshotView view = CaptureSnapshot(*h.sim);
  EXPECT_EQ(stats.num_active, 1u);
  EXPECT_EQ(view.node(0).representative, 2u);  // next-largest id wins
  EXPECT_EQ(view.node(3).mode, NodeMode::kUndefined);  // dead, untouched
}

TEST(ElectionTest, DeterministicForFixedSeed) {
  auto run = [](uint64_t seed) {
    SimConfig sim_config;
    sim_config.loss_probability = 0.4;
    sim_config.seed = seed;
    Harness h(12, TestConfig(), sim_config);
    for (NodeId i = 0; i < 12; ++i) h.agents[i]->SetMeasurement(3.0 * i);
    for (NodeId i = 0; i < 12; ++i) {
      for (NodeId j = 0; j < 12; ++j) {
        if (i != j) h.TeachModel(i, j);
      }
    }
    RunGlobalElection(*h.sim, h.agents, 0, TestConfig());
    std::vector<NodeMode> modes;
    for (const auto& a : h.agents) modes.push_back(a->mode());
    return modes;
  };
  EXPECT_EQ(run(5), run(5));
}

// Property sweep: for any loss rate the election terminates with every
// live node decided, and every PASSIVE node's representative is ACTIVE
// under zero loss.
class LossSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossSweep, ElectionAlwaysSettles) {
  SimConfig sim_config;
  sim_config.loss_probability = GetParam();
  sim_config.seed = 42;
  Harness h(25, TestConfig(), sim_config);
  for (NodeId i = 0; i < 25; ++i) h.agents[i]->SetMeasurement(7.0 + i);
  for (NodeId i = 0; i < 25; ++i) {
    for (NodeId j = 0; j < 25; ++j) {
      if (i != j) h.TeachModel(i, j);
    }
  }
  const ElectionStats stats = RunGlobalElection(*h.sim, h.agents, 0,
                                                TestConfig());
  EXPECT_EQ(stats.num_undefined, 0u);
  EXPECT_EQ(stats.num_active + stats.num_passive, 25u);
  EXPECT_GE(stats.num_active, 1u);
  if (GetParam() == 0.0) {
    // Perfect communication: nobody is left pointing at a passive rep and
    // message count obeys the Table-2 bound.
    const SnapshotView view = CaptureSnapshot(*h.sim);
    for (NodeId i = 0; i < 25; ++i) {
      if (view.node(i).mode == NodeMode::kPassive) {
        EXPECT_EQ(view.node(view.node(i).representative).mode,
                  NodeMode::kActive);
      }
      EXPECT_LE(h.sim->messages_sent_by(i), 5u);
    }
    EXPECT_EQ(view.CountSpurious(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossSweep,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5, 0.8, 0.95));

}  // namespace
}  // namespace snapq
