// Election properties over randomized geometric topologies and model
// graphs: the invariants that must hold for *any* deployment, not just the
// curated scenarios.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/topology.h"
#include "snapshot/election.h"

namespace snapq {
namespace {

SnapshotConfig TestConfig() {
  SnapshotConfig config;
  config.threshold = 1.0;
  config.max_wait = 8;
  config.rule4_hard_cap = 16;
  return config;
}

struct RandomNet {
  std::unique_ptr<Simulator> sim;
  std::vector<std::unique_ptr<SnapshotAgent>> agents;

  RandomNet(uint64_t seed, size_t n, double range, double model_density,
            double loss = 0.0) {
    Rng rng(seed);
    Rng placement = rng.SplitNamed("placement");
    SimConfig sim_config;
    sim_config.loss_probability = loss;
    sim_config.seed = rng.SplitNamed("sim").NextUint64();
    sim = std::make_unique<Simulator>(
        PlaceUniform(n, Rect::UnitSquare(), placement),
        std::vector<double>(n, range), sim_config);
    Rng agent_seeds = rng.SplitNamed("agents");
    for (NodeId i = 0; i < n; ++i) {
      agents.push_back(std::make_unique<SnapshotAgent>(
          i, sim.get(), TestConfig(), agent_seeds.NextUint64()));
      agents.back()->Install();
      agents.back()->SetMeasurement(rng.UniformDouble(0.0, 1000.0));
    }
    // Random model graph: each in-range ordered pair gets an exact model
    // with probability model_density.
    Rng models = rng.SplitNamed("models");
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j : sim->links().Reachable(i)) {
        if (!models.Bernoulli(model_density)) continue;
        const double vi = agents[i]->measurement();
        const double vj = agents[j]->measurement();
        agents[i]->models().cache().Observe(j, vi - 1, vj - 1, 0);
        agents[i]->models().cache().Observe(j, vi + 1, vj + 1, 0);
      }
    }
  }
};

class ElectionProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ElectionProperties, ZeroLossInvariants) {
  const uint64_t seed = GetParam();
  RandomNet net(seed, 40, 0.45, 0.6);
  const ElectionStats stats =
      RunGlobalElection(*net.sim, net.agents, 0, TestConfig());
  const SnapshotView view = CaptureSnapshot(*net.sim);

  // 1. Every node decides.
  EXPECT_EQ(stats.num_undefined, 0u);
  // 2. Under reliable communication there are no spurious representatives.
  EXPECT_EQ(view.CountSpurious(), 0u);
  for (NodeId i = 0; i < 40; ++i) {
    const auto& info = view.node(i);
    if (info.mode == NodeMode::kPassive) {
      // 3. A passive node's representative is ACTIVE and in radio range.
      const NodeId rep = info.representative;
      EXPECT_EQ(view.node(rep).mode, NodeMode::kActive) << "node " << i;
      EXPECT_TRUE(net.sim->links().CanReach(rep, i)) << "node " << i;
      // 4. ...and acknowledges the representation.
      EXPECT_TRUE(view.RepresentsCurrently(rep, i)) << "node " << i;
      // 5. Passive nodes represent nobody.
      EXPECT_TRUE(view.represents(i).empty()) << "node " << i;
    } else {
      // 6. Active nodes represent themselves.
      EXPECT_EQ(info.representative, i) << "node " << i;
    }
    // 7. The Table-2 message bound.
    EXPECT_LE(net.sim->messages_sent_by(i), 5u) << "node " << i;
    // 8. Every node has a responder.
    EXPECT_NE(view.ResponderFor(i), kInvalidNode) << "node " << i;
  }
}

TEST_P(ElectionProperties, LossyInvariants) {
  const uint64_t seed = GetParam();
  RandomNet net(seed, 40, 0.45, 0.6, /*loss=*/0.35);
  const ElectionStats stats =
      RunGlobalElection(*net.sim, net.agents, 0, TestConfig());
  const SnapshotView view = CaptureSnapshot(*net.sim);
  EXPECT_EQ(stats.num_undefined, 0u);
  for (NodeId i = 0; i < 40; ++i) {
    const auto& info = view.node(i);
    if (info.mode == NodeMode::kPassive) {
      // Under loss a passive node still never points at itself...
      EXPECT_NE(info.representative, i);
      // ...and stayed silent about representing others.
      EXPECT_TRUE(view.represents(i).empty());
    }
  }
}

TEST_P(ElectionProperties, RepeatedElectionsRemainStable) {
  const uint64_t seed = GetParam();
  RandomNet net(seed, 30, 0.5, 0.7);
  const ElectionStats first =
      RunGlobalElection(*net.sim, net.agents, 0, TestConfig());
  // Re-running the discovery from the settled state (fresh epochs) must
  // again settle everything, with a comparable snapshot size.
  const ElectionStats second = RunGlobalElection(
      *net.sim, net.agents, net.sim->now() + 1, TestConfig());
  EXPECT_EQ(second.num_undefined, 0u);
  EXPECT_EQ(first.num_active, second.num_active);
  EXPECT_EQ(CaptureSnapshot(*net.sim).CountSpurious(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElectionProperties,
                         ::testing::Range<uint64_t>(1, 13));

TEST(ThresholdMonotonicityTest, LargerThresholdNeverNeedsMoreReps) {
  // Fig 11's monotonicity as a property: same data and placement, rising
  // T => (weakly) shrinking snapshot. Tested via separate universes per T
  // since an agent's threshold is fixed at construction.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    size_t prev = SIZE_MAX;
    for (double t : {0.5, 2.0, 8.0, 32.0}) {
      SnapshotConfig config = TestConfig();
      config.threshold = t;
      Rng rng(seed);
      Rng placement = rng.SplitNamed("placement");
      Simulator sim(PlaceUniform(30, Rect::UnitSquare(), placement),
                    std::vector<double>(30, 1.5), SimConfig{});
      std::vector<std::unique_ptr<SnapshotAgent>> agents;
      Rng agent_seeds = rng.SplitNamed("agents");
      Rng values = rng.SplitNamed("values");
      std::vector<double> v(30);
      for (NodeId i = 0; i < 30; ++i) {
        v[i] = values.UniformDouble(0.0, 100.0);
        agents.push_back(std::make_unique<SnapshotAgent>(
            i, &sim, config, agent_seeds.NextUint64()));
        agents.back()->Install();
        agents.back()->SetMeasurement(v[i]);
      }
      // Noisy models: predict neighbor j with a fixed per-pair error drawn
      // once (same across thresholds because the stream is recreated).
      Rng noise = rng.SplitNamed("noise");
      for (NodeId i = 0; i < 30; ++i) {
        for (NodeId j = 0; j < 30; ++j) {
          if (i == j) continue;
          const double err = noise.UniformDouble(-4.0, 4.0);
          agents[i]->models().cache().Observe(j, v[i] - 1,
                                              v[j] + err - 1, 0);
          agents[i]->models().cache().Observe(j, v[i] + 1,
                                              v[j] + err + 1, 0);
        }
      }
      const ElectionStats stats =
          RunGlobalElection(sim, agents, 0, config);
      EXPECT_LE(stats.num_active, prev)
          << "seed " << seed << " T " << t;
      prev = stats.num_active;
    }
  }
}

}  // namespace
}  // namespace snapq
