// The member -> representatives index the agents keep in the simulator:
// unit behaviour, then the invariant under the protocol. Elections,
// maintenance (heartbeats, re-elections, rotation and energy
// resignations), kills, battery exhaustion, moves and data drift are
// stepped one event at a time; after every event the index must equal the
// brute-force inversion of every agent's represents() map, and at
// checkpoints the executor's responders (found through the index) must
// equal the full-scan snapshot rule.
#include "sim/representation_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "net/topology.h"
#include "query/executor.h"
#include "query/routing_tree.h"
#include "snapshot/election.h"
#include "snapshot/maintenance.h"

namespace snapq {
namespace {

std::vector<NodeId> RepsOf(const RepresentationIndex& index, NodeId member) {
  std::vector<NodeId> reps;
  index.ForEachRep(member, [&](NodeId r) { reps.push_back(r); });
  std::sort(reps.begin(), reps.end());
  return reps;
}

TEST(RepresentationIndexTest, AddRemoveAndReuse) {
  RepresentationIndex index(4);
  EXPECT_TRUE(RepsOf(index, 0).empty());
  index.Add(0, 2);
  index.Add(0, 3);
  index.Add(0, 2);  // already there
  index.Add(1, 2);
  EXPECT_EQ(RepsOf(index, 0), (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(RepsOf(index, 1), (std::vector<NodeId>{2}));
  index.Remove(0, 2);
  index.Remove(0, 1);  // never there
  EXPECT_EQ(RepsOf(index, 0), (std::vector<NodeId>{3}));
  index.Remove(0, 3);
  index.Remove(1, 2);
  EXPECT_TRUE(RepsOf(index, 0).empty());
  EXPECT_TRUE(RepsOf(index, 1).empty());
  // Freed cells serve later pairs.
  index.Add(3, 0);
  index.Add(2, 1);
  EXPECT_EQ(RepsOf(index, 3), (std::vector<NodeId>{0}));
  EXPECT_EQ(RepsOf(index, 2), (std::vector<NodeId>{1}));
}

constexpr size_t kNodes = 36;

SnapshotConfig TestConfig() {
  SnapshotConfig config;
  config.threshold = 1.0;
  config.max_wait = 4;
  config.rule4_hard_cap = 8;
  config.heartbeat_timeout = 2;
  config.heartbeat_miss_limit = 1;
  config.rotation_rounds = 3;             // rotation resignations
  config.resign_battery_fraction = 0.5;   // energy resignations
  return config;
}

struct Net {
  std::unique_ptr<Simulator> sim;
  std::vector<std::unique_ptr<SnapshotAgent>> agents;
  std::unique_ptr<QueryExecutor> executor;

  explicit Net(uint64_t seed) {
    Rng rng(seed);
    SimConfig sim_config;
    sim_config.energy.initial_battery = 600.0;
    sim_config.loss_probability = 0.05;
    sim_config.snoop_probability = 0.05;
    sim_config.seed = seed;
    sim = std::make_unique<Simulator>(
        PlaceUniform(kNodes, Rect::UnitSquare(), rng),
        std::vector<double>(kNodes, 0.4), sim_config);
    for (NodeId i = 0; i < kNodes; ++i) {
      agents.push_back(std::make_unique<SnapshotAgent>(
          i, sim.get(), TestConfig(), seed * 1000 + i));
      agents.back()->Install();
    }
    executor = std::make_unique<QueryExecutor>(
        sim.get(), &agents, Catalog::WithStandardRegions(Rect::UnitSquare()));
  }

  /// New readings, and models for a random subset of the pairs.
  void Teach(Rng& rng) {
    for (NodeId i = 0; i < kNodes; ++i) {
      agents[i]->SetMeasurement(rng.UniformDouble(0.0, 20.0));
    }
    for (NodeId i = 0; i < kNodes; ++i) {
      for (NodeId j = 0; j < kNodes; ++j) {
        if (i == j || !rng.Bernoulli(0.5)) continue;
        const double vi = agents[i]->measurement();
        const double vj = agents[j]->measurement();
        agents[i]->models().cache().Observe(j, vi - 1, vj - 1, sim->now());
        agents[i]->models().cache().Observe(j, vi + 1, vj + 1, sim->now());
      }
    }
  }
};

/// The index against the brute-force inversion of every represents().
/// Returns the number of (member, representative) pairs.
size_t ExpectIndexInvertsMaps(const Net& net) {
  std::vector<std::vector<NodeId>> inverted(kNodes);
  size_t pairs = 0;
  for (NodeId r = 0; r < kNodes; ++r) {
    for (const auto& [j, e] : net.agents[r]->represents()) {
      inverted[j].push_back(r);
      ++pairs;
    }
  }
  for (NodeId j = 0; j < kNodes; ++j) {
    EXPECT_EQ(RepsOf(net.sim->representation(), j), inverted[j])
        << "member " << j << " at t=" << net.sim->now();
  }
  return pairs;
}

/// The executor's plan against the full-scan responder rule: every live
/// node that matches and is not PASSIVE, or that represents a matching
/// node, responds when the sink's tree reaches it.
void ExpectResponders(Net& net, const Rect& region, NodeId sink) {
  const Simulator& sim = *net.sim;
  std::vector<bool> alive(kNodes);
  for (NodeId i = 0; i < kNodes; ++i) alive[i] = sim.alive(i);
  const RoutingTree tree = RoutingTree::Build(sim.links(), alive, sink);
  size_t responders = 0;
  std::vector<bool> on_path(kNodes, false);
  std::map<NodeId, NodeId> reporters;  // winning reporter per node
  std::map<NodeId, int64_t> epochs;
  for (NodeId r = 0; r < kNodes; ++r) {
    if (!sim.alive(r) || !tree.IsReachable(r)) continue;
    const SnapshotAgent& agent = *net.agents[r];
    bool responds = region.Contains(sim.links().position(r)) &&
                    agent.mode() != NodeMode::kPassive;
    if (responds) {
      reporters[r] = r;
      epochs[r] = kQueryClaimSelfEpoch;
    }
    for (const auto& [j, e] : agent.represents()) {
      if (!region.Contains(sim.links().position(j))) continue;
      responds = true;
      if (!agent.EstimateFor(j).has_value()) continue;
      const auto it = epochs.find(j);
      if (it == epochs.end() || e > it->second ||
          (e == it->second && r > reporters[j])) {
        epochs[j] = e;
        reporters[j] = r;
      }
    }
    if (!responds) continue;
    ++responders;
    for (NodeId v = r; v != kInvalidNode; v = tree.parent(v)) {
      on_path[v] = true;
    }
  }
  ExecutionOptions options;
  options.sink = sink;
  const QueryProvenance plan = net.executor->PlanRegion(region, true, options);
  EXPECT_EQ(plan.responders, responders) << "t=" << sim.now();
  EXPECT_EQ(plan.participants,
            static_cast<size_t>(
                std::count(on_path.begin(), on_path.end(), true)));
  ASSERT_EQ(plan.claims.size(), reporters.size()) << "t=" << sim.now();
  for (const auto& [j, claim] : plan.claims) {
    EXPECT_EQ(claim.reporter, reporters[j]) << "node " << j;
  }
}

Rect RandomRegion(Rng& rng) {
  if (rng.Bernoulli(0.2)) return Rect{-1e300, -1e300, 1e300, 1e300};
  const double x = rng.UniformDouble(0.0, 0.7);
  const double y = rng.UniformDouble(0.0, 0.7);
  return Rect{x, y, x + rng.UniformDouble(0.1, 0.5),
              y + rng.UniformDouble(0.1, 0.5)};
}

/// Runs every pending event one at a time, checking the index after
/// each; every 20th event also checks the responders, and every 50th
/// injects a fault (kill, exhaustion, move or drift). `pairs` keeps the
/// most (member, representative) pairs seen at once.
void StepChecked(Net& net, Rng& rng, size_t* events, size_t* pairs) {
  while (net.sim->RunNext()) {
    ++*events;
    *pairs = std::max(*pairs, ExpectIndexInvertsMaps(net));
    if (testing::Test::HasFailure()) return;
    if (*events % 20 == 0) {
      ExpectResponders(net, RandomRegion(rng),
                       static_cast<NodeId>(rng.UniformInt(0, kNodes - 1)));
    }
    if (*events % 50 != 0) continue;
    const NodeId v = static_cast<NodeId>(rng.UniformInt(0, kNodes - 1));
    switch (rng.UniformInt(0, 3)) {
      case 0:
        net.sim->Kill(v);
        break;
      case 1:
        net.sim->Drain(v, net.sim->battery(v).remaining());
        break;
      case 2:
        net.sim->MoveNode(v, {rng.UniformDouble(0.0, 1.0),
                              rng.UniformDouble(0.0, 1.0)});
        break;
      default:
        net.agents[v]->SetMeasurement(rng.UniformDouble(0.0, 40.0));
        break;
    }
  }
}

TEST(RepresentationIndexTest, IndexInvertsRepresentsThroughTheProtocol) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Net net(seed);
    Rng rng(seed * 6151);
    net.Teach(rng);
    size_t events = 0;
    size_t pairs = 0;
    for (NodeId i = 0; i < kNodes; ++i) {
      net.agents[i]->BeginElection(net.sim->now());
    }
    StepChecked(net, rng, &events, &pairs);
    ASSERT_FALSE(testing::Test::HasFailure());

    MaintenanceDriver driver(net.sim.get(), &net.agents, 10);
    driver.ScheduleRounds(net.sim->now() + 1, net.sim->now() + 120, {});
    StepChecked(net, rng, &events, &pairs);
    ASSERT_FALSE(testing::Test::HasFailure());

    // A second discovery drops every claim and rebuilds them.
    net.Teach(rng);
    for (NodeId i = 0; i < kNodes; ++i) {
      net.agents[i]->BeginElection(net.sim->now());
    }
    StepChecked(net, rng, &events, &pairs);
    EXPECT_GT(events, 500u);
    EXPECT_GT(pairs, kNodes / 4);
    EXPECT_FALSE(net.sim->deaths().empty());
  }
}

}  // namespace
}  // namespace snapq
