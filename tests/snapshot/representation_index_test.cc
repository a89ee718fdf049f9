// The representation index, the one store of "rep represents member since
// epoch e": unit behaviour, then its invariants under the protocol.
// Elections, maintenance (heartbeats, re-elections, rotation and energy
// resignations), kills, battery exhaustion, moves and data drift are
// stepped one event at a time, as are seeded schedules of moves (one kind
// in place), kills and network-wide re-elections. After every event the
// member -> reps and rep -> members threadings must be exact inverses,
// every rep's chain strictly ascending and no (member, rep) pair twice. At
// checkpoints a captured SnapshotView must match the live index and a
// brute-force fold over its rows, and the executor's responders (found
// through the index) must equal the full-scan snapshot rule.
#include "sim/representation_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/topology.h"
#include "query/executor.h"
#include "query/routing_tree.h"
#include "snapshot/election.h"
#include "snapshot/maintenance.h"

namespace snapq {
namespace {

using Members = std::vector<std::pair<NodeId, int64_t>>;

std::vector<NodeId> RepsOf(const RepresentationIndex& index, NodeId member) {
  std::vector<NodeId> reps;
  index.ForEachRep(member, [&](NodeId r) { reps.push_back(r); });
  std::sort(reps.begin(), reps.end());
  return reps;
}

Members MembersOf(const RepresentationIndex& index, NodeId rep) {
  Members members;
  for (const auto& [j, e] : index.MembersOf(rep)) members.emplace_back(j, e);
  return members;
}

TEST(RepresentationIndexTest, AddRemoveAndReuse) {
  RepresentationIndex index(4);
  EXPECT_TRUE(RepsOf(index, 0).empty());
  EXPECT_TRUE(index.MembersOf(2).empty());
  index.Set(0, 2, 1);
  index.Set(0, 3, 1);
  index.Set(0, 2, 4);  // already there: the epoch is replaced
  index.Set(1, 2, 2);
  EXPECT_EQ(RepsOf(index, 0), (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(RepsOf(index, 1), (std::vector<NodeId>{2}));
  EXPECT_EQ(MembersOf(index, 2), (Members{{0, 4}, {1, 2}}));
  EXPECT_EQ(index.MembersOf(2).size(), 2u);
  EXPECT_EQ(index.EpochOf(0, 2), 4);
  EXPECT_EQ(index.EpochOf(1, 3), std::nullopt);
  index.Remove(0, 2);
  index.Remove(0, 1);  // never there
  EXPECT_EQ(RepsOf(index, 0), (std::vector<NodeId>{3}));
  EXPECT_EQ(MembersOf(index, 2), (Members{{1, 2}}));
  EXPECT_EQ(index.EpochOf(0, 2), std::nullopt);
  index.Remove(0, 3);
  index.Remove(1, 2);
  EXPECT_TRUE(RepsOf(index, 0).empty());
  EXPECT_TRUE(RepsOf(index, 1).empty());
  EXPECT_TRUE(index.MembersOf(2).empty());
  EXPECT_TRUE(index.MembersOf(3).empty());
  // Freed cells serve later pairs.
  index.Set(3, 0, 7);
  index.Set(2, 1, 8);
  EXPECT_EQ(RepsOf(index, 3), (std::vector<NodeId>{0}));
  EXPECT_EQ(RepsOf(index, 2), (std::vector<NodeId>{1}));
  EXPECT_EQ(MembersOf(index, 0), (Members{{3, 7}}));
  EXPECT_EQ(MembersOf(index, 1), (Members{{2, 8}}));
}

TEST(RepresentationIndexTest, MembersStayAscendingWhateverTheWriteOrder) {
  RepresentationIndex index(8);
  for (const NodeId j : {5u, 1u, 7u, 3u, 0u, 6u}) index.Set(j, 2, j * 10);
  EXPECT_EQ(MembersOf(index, 2),
            (Members{{0, 0}, {1, 10}, {3, 30}, {5, 50}, {6, 60}, {7, 70}}));
  index.Remove(3, 2);  // middle
  index.Remove(0, 2);  // head
  index.Remove(7, 2);  // tail
  index.Set(4, 2, 41);
  EXPECT_EQ(MembersOf(index, 2),
            (Members{{1, 10}, {4, 41}, {5, 50}, {6, 60}}));
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

/// The index's invariants: the member -> reps and rep -> members
/// threadings are exact inverses, every rep's chain is strictly ascending,
/// and no (member, rep) pair appears twice. Returns the number of pairs.
size_t ExpectIndexConsistent(const RepresentationIndex& index) {
  std::set<std::pair<NodeId, NodeId>> by_member;  // (member, rep)
  size_t member_links = 0;
  for (NodeId j = 0; j < kNodes; ++j) {
    index.ForEachRep(j, [&](NodeId r) {
      ++member_links;
      EXPECT_TRUE(by_member.emplace(j, r).second)
          << "pair (" << j << ", " << r << ") twice";
    });
  }
  std::set<std::pair<NodeId, NodeId>> by_rep;
  size_t rep_links = 0;
  for (NodeId r = 0; r < kNodes; ++r) {
    std::optional<NodeId> last;
    for (const auto& [j, e] : index.MembersOf(r)) {
      ++rep_links;
      EXPECT_TRUE(!last.has_value() || *last < j)
          << "rep " << r << " chain not ascending at member " << j;
      last = j;
      by_rep.emplace(j, r);
      EXPECT_EQ(index.EpochOf(j, r), e) << "pair (" << j << ", " << r << ")";
    }
  }
  EXPECT_EQ(by_member, by_rep);
  EXPECT_EQ(member_links, by_member.size());
  EXPECT_EQ(rep_links, by_rep.size());
  return by_rep.size();
}

/// A captured view against the live agents and index, and its three
/// queries against a brute-force fold over its own rows and entries.
void ExpectViewMatchesFold(const Net& net) {
  const SnapshotView view = CaptureSnapshot(*net.sim);
  ASSERT_EQ(view.num_nodes(), kNodes);
  std::vector<std::tuple<NodeId, NodeId, int64_t>> live;
  for (NodeId r = 0; r < kNodes; ++r) {
    const SnapshotAgent& agent = *net.agents[r];
    EXPECT_EQ(view.node(r).mode, agent.mode());
    EXPECT_EQ(view.node(r).representative, agent.representative());
    EXPECT_EQ(view.node(r).epoch, agent.epoch());
    EXPECT_EQ(view.node(r).alive, net.sim->alive(r));
    for (const auto& [j, e] : agent.represents()) live.emplace_back(r, j, e);
  }
  std::vector<std::tuple<NodeId, NodeId, int64_t>> captured;
  for (NodeId r = 0; r < kNodes; ++r) {
    for (const SnapshotView::Entry& entry : view.represents(r)) {
      EXPECT_EQ(entry.rep, r);
      captured.emplace_back(entry.rep, entry.member, entry.epoch);
    }
  }
  EXPECT_EQ(captured, live);
  EXPECT_EQ(view.entries().size(), captured.size());

  // The fold: (rep, member) -> recorded epoch, then the snapshot rule.
  std::map<std::pair<NodeId, NodeId>, int64_t> held;
  for (const SnapshotView::Entry& entry : view.entries()) {
    held[{entry.rep, entry.member}] = entry.epoch;
  }
  const auto current = [&](NodeId r, NodeId j) {
    if (r == j) return true;
    const auto it = held.find({r, j});
    return it != held.end() && view.node(j).representative == r &&
           view.node(j).epoch == it->second;
  };
  std::set<NodeId> spurious;
  for (const auto& [pair, epoch] : held) {
    if (view.node(pair.first).alive && !current(pair.first, pair.second)) {
      spurious.insert(pair.first);
    }
  }
  EXPECT_EQ(view.CountSpurious(), spurious.size());
  for (NodeId j = 0; j < kNodes; ++j) {
    for (NodeId r = 0; r < kNodes; ++r) {
      EXPECT_EQ(view.RepresentsCurrently(r, j), current(r, j))
          << "rep " << r << " member " << j;
    }
    const SnapshotView::NodeInfo& row = view.node(j);
    NodeId responder = kInvalidNode;
    if (row.mode != NodeMode::kPassive || row.representative == j ||
        row.representative == kInvalidNode) {
      if (row.alive) responder = j;
    } else if (view.node(row.representative).alive &&
               current(row.representative, j)) {
      responder = row.representative;
    }
    EXPECT_EQ(view.ResponderFor(j), responder) << "node " << j;
  }
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
/// each; every 20th event also checks a captured view and the responders,
/// and every 50th injects a fault (kill, exhaustion, move or drift).
/// `pairs` keeps the most (member, representative) pairs seen at once.
void StepChecked(Net& net, Rng& rng, size_t* events, size_t* pairs) {
  while (net.sim->RunNext()) {
    ++*events;
    *pairs =
        std::max(*pairs, ExpectIndexConsistent(net.sim->representation()));
    if (testing::Test::HasFailure()) return;
    if (*events % 20 == 0) {
      ExpectViewMatchesFold(net);
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

TEST(RepresentationIndexTest, InvariantsHoldUnderMovesKillsAndReelections) {
  // The routing-cache property test's schedule: each step is a move (one
  // kind in place), a kill, battery exhaustion, a network-wide re-election
  // after new readings, or nothing; its events are then stepped checked.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Net net(seed);
    Rng rng(seed * 7919);
    size_t events = 0;
    size_t pairs = 0;
    size_t reelections = 0;
    for (int step = 0; step < 40; ++step) {
      const NodeId v = static_cast<NodeId>(rng.UniformInt(0, kNodes - 1));
      switch (step == 0 ? 4 : rng.UniformInt(0, 5)) {
        case 0:
          net.sim->MoveNode(v, net.sim->links().position(v));
          break;
        case 1:
          net.sim->MoveNode(v, {rng.UniformDouble(0.0, 1.0),
                                rng.UniformDouble(0.0, 1.0)});
          break;
        case 2:
          if (net.sim->alive(v)) net.sim->Kill(v);
          break;
        case 3:
          if (net.sim->alive(v)) {
            net.sim->Drain(v, net.sim->battery(v).remaining());
          }
          break;
        case 4:
          ++reelections;
          net.Teach(rng);
          for (NodeId i = 0; i < kNodes; ++i) {
            net.agents[i]->BeginElection(net.sim->now());
          }
          break;
        default:
          break;
      }
      StepChecked(net, rng, &events, &pairs);
      ASSERT_FALSE(testing::Test::HasFailure()) << "step " << step;
      ExpectViewMatchesFold(net);
    }
    EXPECT_GT(reelections, 1u);
    EXPECT_GT(pairs, kNodes / 4);
  }
}

}  // namespace
}  // namespace snapq
