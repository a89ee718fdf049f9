// Property test for the executor's routing-tree cache, the repair of a
// cached tree, and the allocation-free participation and claim pass:
// across seeded random sequences of moves (one of them leaving every
// adjacency row as it was), kills, battery exhaustion, re-elections that
// flip modes, sleep and favor flags, and more sinks than the cache holds,
// every ExecuteRegion and PlanRegion answer equals a reference computed
// from scratch — a fresh RoutingTree::Build, a full scan for responders,
// a parent walk per responder and a std::map claim fold. Repaired trees
// are also compared with a fresh build node by node, over asymmetric
// ranges, and the cases that must rebuild (an overflowed change log, a
// mode change under sleep or favor) are checked to rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "net/topology.h"
#include "query/aggregation.h"
#include "query/executor.h"
#include "query/routing_tree.h"
#include "snapshot/election.h"

namespace snapq {
namespace {

constexpr size_t kNodes = 48;
constexpr double kRange = 0.3;
/// More distinct sinks than the executor's cache holds, so entries are
/// evicted and rebuilt.
constexpr NodeId kSinks = 12;

SnapshotConfig TestConfig() {
  SnapshotConfig config;
  config.threshold = 1.0;
  config.max_wait = 4;
  config.rule4_hard_cap = 8;
  return config;
}

struct Net {
  std::unique_ptr<Simulator> sim;
  std::vector<std::unique_ptr<SnapshotAgent>> agents;
  std::unique_ptr<QueryExecutor> executor;

  explicit Net(uint64_t seed) {
    Rng rng(seed);
    SimConfig sim_config;
    sim_config.energy.initial_battery = 1e6;
    sim = std::make_unique<Simulator>(
        PlaceUniform(kNodes, Rect::UnitSquare(), rng),
        std::vector<double>(kNodes, kRange), sim_config);
    for (NodeId i = 0; i < kNodes; ++i) {
      agents.push_back(std::make_unique<SnapshotAgent>(
          i, sim.get(), TestConfig(), seed * 1000 + i));
      agents.back()->Install();
    }
    executor = std::make_unique<QueryExecutor>(
        sim.get(), &agents, Catalog::WithStandardRegions(Rect::UnitSquare()));
  }

  /// New readings for every node, then models for a random subset of the
  /// pairs: the stale ones miss T, so the election's outcome changes.
  void Reelect(Rng& rng) {
    for (NodeId i = 0; i < kNodes; ++i) {
      agents[i]->SetMeasurement(rng.UniformDouble(0.0, 20.0));
    }
    for (NodeId i = 0; i < kNodes; ++i) {
      for (NodeId j = 0; j < kNodes; ++j) {
        if (i == j || !rng.Bernoulli(0.4)) continue;
        const double vi = agents[i]->measurement();
        const double vj = agents[j]->measurement();
        agents[i]->models().cache().Observe(j, vi - 1, vj - 1, sim->now());
        agents[i]->models().cache().Observe(j, vi + 1, vj + 1, sim->now());
      }
    }
    RunGlobalElection(*sim, agents, sim->now(), TestConfig());
  }
};

/// Later election epoch wins; ties break toward the larger reporter id.
bool Supersedes(const QueryClaim& a, const QueryClaim& b) {
  if (a.epoch != b.epoch) return a.epoch > b.epoch;
  return a.reporter > b.reporter;
}

/// The round computed from scratch, in the shape of QueryProvenance.
QueryProvenance Reference(const Net& net, const Rect& region,
                          bool use_snapshot, const ExecutionOptions& options) {
  const Simulator& sim = *net.sim;
  const LinkModel& links = sim.links();
  QueryProvenance ref;
  std::vector<bool> matching(kNodes, false);
  std::vector<bool> alive(kNodes, false);
  std::vector<bool> favor(kNodes, false);
  for (NodeId i = 0; i < kNodes; ++i) {
    matching[i] = region.Contains(links.position(i));
    if (matching[i]) ++ref.matching_nodes;
    const NodeMode mode = net.agents[i]->mode();
    alive[i] = sim.alive(i) &&
               !(use_snapshot && options.passive_nodes_sleep &&
                 i != options.sink && mode == NodeMode::kPassive);
    favor[i] = mode == NodeMode::kActive;
  }
  const RoutingTree tree =
      RoutingTree::Build(links, alive, options.sink,
                         options.favor_representatives ? &favor : nullptr);

  std::vector<bool> on_path(kNodes, false);
  const auto offer = [&](NodeId j, const QueryClaim& claim) {
    const auto [it, inserted] = ref.claims.try_emplace(j, claim);
    if (!inserted && Supersedes(claim, it->second)) it->second = claim;
  };
  for (NodeId r = 0; r < kNodes; ++r) {
    if (!sim.alive(r) || !tree.IsReachable(r)) continue;
    const SnapshotAgent& agent = *net.agents[r];
    const bool self = matching[r] &&
                      (!use_snapshot || agent.mode() != NodeMode::kPassive);
    bool responds = self;
    if (use_snapshot) {
      for (const auto& [j, e] : agent.represents()) {
        responds = responds || matching[j];
      }
    }
    if (!responds) continue;
    ++ref.responders;
    ref.tree_depth = std::max(ref.tree_depth, tree.depth(r));
    for (NodeId v = r; v != kInvalidNode; v = tree.parent(v)) {
      on_path[v] = true;
    }
    if (self) {
      offer(r, QueryClaim{r, kQueryClaimSelfEpoch, agent.measurement(),
                          false});
    }
    if (!use_snapshot) continue;
    for (const auto& [j, e] : agent.represents()) {
      if (!matching[j]) continue;
      const std::optional<double> estimate = agent.EstimateFor(j);
      if (estimate.has_value()) offer(j, QueryClaim{r, e, *estimate, true});
    }
  }
  ref.participants =
      static_cast<size_t>(std::count(on_path.begin(), on_path.end(), true));
  ref.messages = ref.participants - (on_path[options.sink] ? 1u : 0u);
  ref.reachable_nodes = tree.CountReachable();
  ref.depth.assign(kNodes, -1);
  for (NodeId i = 0; i < kNodes; ++i) ref.depth[i] = tree.depth(i);
  return ref;
}

void ExpectSameClaims(const std::map<NodeId, QueryClaim>& actual,
                      const std::map<NodeId, QueryClaim>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [j, want] : expected) {
    const auto it = actual.find(j);
    ASSERT_NE(it, actual.end()) << "node " << j;
    EXPECT_EQ(it->second.reporter, want.reporter) << "node " << j;
    EXPECT_EQ(it->second.epoch, want.epoch) << "node " << j;
    EXPECT_EQ(it->second.value, want.value) << "node " << j;
    EXPECT_EQ(it->second.estimated, want.estimated) << "node " << j;
  }
}

void ExpectSameProvenance(const QueryProvenance& actual,
                          const QueryProvenance& expected) {
  EXPECT_EQ(actual.matching_nodes, expected.matching_nodes);
  EXPECT_EQ(actual.responders, expected.responders);
  EXPECT_EQ(actual.participants, expected.participants);
  EXPECT_EQ(actual.reachable_nodes, expected.reachable_nodes);
  EXPECT_EQ(actual.messages, expected.messages);
  EXPECT_EQ(actual.tree_depth, expected.tree_depth);
  EXPECT_EQ(actual.depth, expected.depth);
  ExpectSameClaims(actual.claims, expected.claims);
}

/// One query checked three ways: ExecuteRegion's result and provenance
/// and PlanRegion's plan, each against the from-scratch reference.
void CheckQuery(Net& net, const Rect& region, bool use_snapshot,
                AggregateFunction aggregate, const ExecutionOptions& options) {
  const QueryProvenance ref = Reference(net, region, use_snapshot, options);
  ExpectSameProvenance(net.executor->PlanRegion(region, use_snapshot, options),
                       ref);

  QueryProvenance actuals;
  ExecutionOptions hooked = options;
  hooked.provenance = &actuals;
  const QueryResult result =
      net.executor->ExecuteRegion(region, use_snapshot, aggregate, hooked);
  ExpectSameProvenance(actuals, ref);
  EXPECT_EQ(result.matching_nodes, ref.matching_nodes);
  EXPECT_EQ(result.responders, ref.responders);
  EXPECT_EQ(result.participants, ref.participants);
  EXPECT_EQ(result.covered_nodes, ref.claims.size());
  if (aggregate != AggregateFunction::kNone) {
    PartialAggregate agg(aggregate);
    for (const auto& [j, claim] : ref.claims) agg.AddValue(claim.value);
    EXPECT_EQ(result.aggregate, agg.Finalize());
  } else {
    ASSERT_EQ(result.rows.size(), ref.claims.size());
    size_t k = 0;
    for (const auto& [j, claim] : ref.claims) {
      EXPECT_EQ(result.rows[k].loc, j);
      EXPECT_EQ(result.rows[k].reporter, claim.reporter);
      EXPECT_EQ(result.rows[k].value, claim.value);
      ++k;
    }
  }
}

Rect RandomRegion(Rng& rng) {
  if (rng.Bernoulli(0.2)) return Rect::UnitSquare();
  const double x = rng.UniformDouble(0.0, 0.8);
  const double y = rng.UniformDouble(0.0, 0.8);
  const double w = rng.UniformDouble(0.1, 0.6);
  const double h = rng.UniformDouble(0.1, 0.6);
  return Rect{x, y, x + w, y + h};
}

/// Which change ApplyRandomChange made.
enum class Change { kNone, kMove, kDeath, kReelect };

/// One seeded change: a move (possibly to where the node already is), a
/// kill, battery exhaustion, a re-election, or nothing.
Change ApplyRandomChange(Net& net, Rng& rng) {
  const NodeId target = static_cast<NodeId>(rng.UniformInt(0, kNodes - 1));
  switch (rng.UniformInt(0, 5)) {
    case 0: {  // a move that leaves every adjacency row unchanged
      const Point p = net.sim->links().position(target);
      net.sim->MoveNode(target, p);
      return Change::kMove;
    }
    case 1:
      net.sim->MoveNode(target, {rng.UniformDouble(0.0, 1.0),
                                 rng.UniformDouble(0.0, 1.0)});
      return Change::kMove;
    case 2:
      if (!net.sim->alive(target)) return Change::kNone;
      net.sim->Kill(target);
      return Change::kDeath;
    case 3:  // battery exhaustion
      if (!net.sim->alive(target)) return Change::kNone;
      net.sim->Drain(target, net.sim->battery(target).remaining());
      return Change::kDeath;
    case 4:
      net.Reelect(rng);
      return Change::kReelect;
    default:
      return Change::kNone;
  }
}

TEST(RoutingCachePropertyTest, CachedRoutingEqualsAFreshBuild) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Net net(seed);
    Rng rng(seed * 7919);
    net.Reelect(rng);
    size_t mode_flips = 0;
    size_t deaths = 0;
    for (int step = 0; step < 40; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      std::vector<NodeMode> before;
      for (const auto& a : net.agents) before.push_back(a->mode());
      if (ApplyRandomChange(net, rng) == Change::kDeath) ++deaths;
      for (NodeId i = 0; i < kNodes; ++i) {
        if (net.agents[i]->mode() != before[i]) ++mode_flips;
      }
      for (int q = 0; q < 6; ++q) {
        ExecutionOptions options;
        options.sink = static_cast<NodeId>(rng.UniformInt(0, kSinks - 1));
        options.passive_nodes_sleep = rng.Bernoulli(0.5);
        options.favor_representatives = rng.Bernoulli(0.5);
        const bool use_snapshot = rng.Bernoulli(0.6);
        const Rect region = RandomRegion(rng);
        const AggregateFunction aggregate = rng.Bernoulli(0.5)
                                                ? AggregateFunction::kAvg
                                                : AggregateFunction::kNone;
        // Twice: the repeat finds the first one's tree in the cache.
        CheckQuery(net, region, use_snapshot, aggregate, options);
        CheckQuery(net, region, use_snapshot, aggregate, options);
      }
    }
    // The sequence really exercised what the cache must notice.
    EXPECT_GT(mode_flips, 0u);
    EXPECT_GT(deaths, 0u);
  }
}

TEST(RoutingCachePropertyTest, SameSinkIsRepairedAfterEveryChange) {
  // One sink queried after every change, as a gateway is: each round that
  // follows a move or a death repairs the sink's cached tree (the plain
  // variant always can; sleep and favor can while their bits hold), and
  // every answer still equals the from-scratch reference.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Net net(seed);
    Rng rng(seed * 104729);
    net.Reelect(rng);
    const NodeId sink = static_cast<NodeId>(rng.UniformInt(0, kNodes - 1));
    for (int step = 0; step < 60; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      const Change change = ApplyRandomChange(net, rng);
      ExecutionOptions options;
      options.sink = sink;
      const int variant = step % 3;
      options.passive_nodes_sleep = variant == 1;
      options.favor_representatives = variant == 2;
      const QueryExecutor::RouteStats before = net.executor->route_stats();
      CheckQuery(net, RandomRegion(rng), /*use_snapshot=*/true,
                 AggregateFunction::kNone, options);
      const QueryExecutor::RouteStats& after = net.executor->route_stats();
      // PlanRegion fetched the tree, ExecuteRegion hit what it left.
      EXPECT_EQ(after.hits + after.repairs + after.builds,
                before.hits + before.repairs + before.builds + 2);
      EXPECT_GE(after.hits, before.hits + 1);
      if (variant == 0 && step >= 3 &&
          (change == Change::kMove || change == Change::kDeath)) {
        EXPECT_EQ(after.repairs, before.repairs + 1);
        EXPECT_EQ(after.builds, before.builds);
      }
    }
    EXPECT_GT(net.executor->route_stats().repairs, 20u);
  }
}

TEST(RoutingCachePropertyTest, OverflowedChangeLogFallsBackToBuild) {
  Net net(3);
  Rng rng(77);
  net.Reelect(rng);
  ExecutionOptions options;
  options.sink = 5;
  const Rect all = Rect::UnitSquare();
  CheckQuery(net, all, true, AggregateFunction::kNone, options);

  // A few moves: the log reaches back, so the tree is repaired.
  for (int k = 0; k < 4; ++k) {
    net.sim->MoveNode(static_cast<NodeId>(rng.UniformInt(0, kNodes - 1)),
                      {rng.UniformDouble(0.0, 1.0),
                       rng.UniformDouble(0.0, 1.0)});
  }
  QueryExecutor::RouteStats before = net.executor->route_stats();
  CheckQuery(net, all, true, AggregateFunction::kNone, options);
  EXPECT_EQ(net.executor->route_stats().repairs, before.repairs + 1);
  EXPECT_EQ(net.executor->route_stats().builds, before.builds);

  // Every move logs its mover, so this many overflow the log: the cached
  // version is forgotten and the tree is built from scratch.
  for (size_t k = 0; k <= LinkModel::kChangeLogCapacity; ++k) {
    net.sim->MoveNode(static_cast<NodeId>(rng.UniformInt(0, kNodes - 1)),
                      {rng.UniformDouble(0.0, 1.0),
                       rng.UniformDouble(0.0, 1.0)});
  }
  before = net.executor->route_stats();
  CheckQuery(net, all, true, AggregateFunction::kNone, options);
  EXPECT_EQ(net.executor->route_stats().repairs, before.repairs);
  EXPECT_EQ(net.executor->route_stats().builds, before.builds + 1);
}

TEST(RoutingCachePropertyTest, ModeChangeUnderSleepOrFavorRebuilds) {
  // Sleep and favor bits come from the agents' modes. A move alone keeps
  // them, so the sink's tree is repaired; a re-election that flips a mode
  // changes them, so the next round builds a tree for the new bits.
  for (const bool sleep : {true, false}) {
    SCOPED_TRACE(testing::Message() << (sleep ? "sleep" : "favor"));
    Net net(4);
    Rng rng(4242);
    net.Reelect(rng);
    ExecutionOptions options;
    options.sink = 9;
    options.passive_nodes_sleep = sleep;
    options.favor_representatives = !sleep;
    const Rect all = Rect::UnitSquare();
    CheckQuery(net, all, true, AggregateFunction::kAvg, options);

    net.sim->MoveNode(17, {0.5, 0.5});
    QueryExecutor::RouteStats before = net.executor->route_stats();
    CheckQuery(net, all, true, AggregateFunction::kAvg, options);
    EXPECT_EQ(net.executor->route_stats().repairs, before.repairs + 1);

    // The bits the executor keys on: sleeping passive nodes (the sink
    // never sleeps), or favored ACTIVE nodes.
    const auto bits = [&] {
      std::vector<bool> b(kNodes);
      for (NodeId i = 0; i < kNodes; ++i) {
        const NodeMode mode = net.agents[i]->mode();
        b[i] = sleep ? i != options.sink && mode == NodeMode::kPassive
                     : mode == NodeMode::kActive;
      }
      return b;
    };
    const std::vector<bool> old_bits = bits();
    while (bits() == old_bits) net.Reelect(rng);
    net.sim->MoveNode(17, {0.25, 0.75});
    before = net.executor->route_stats();
    CheckQuery(net, all, true, AggregateFunction::kAvg, options);
    EXPECT_EQ(net.executor->route_stats().repairs, before.repairs);
    EXPECT_EQ(net.executor->route_stats().builds, before.builds + 1);
  }
}

TEST(RoutingCachePropertyTest, RepairedTreeEqualsAFreshBuild) {
  // RoutingTree::Repair on its own, over asymmetric ranges (a link can
  // work one way only) and with favor bits: after every batch of moves and
  // deaths the repaired tree equals a fresh build at every node.
  constexpr size_t kN = 90;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed * 31337);
    std::vector<double> ranges(kN);
    for (double& r : ranges) r = rng.UniformDouble(0.12, 0.3);
    LinkModel links(PlaceUniform(kN, Rect::UnitSquare(), rng),
                    std::move(ranges), 0.0);
    std::vector<bool> alive(kN, true);
    std::vector<bool> favor(kN, false);
    for (size_t i = 0; i < kN; ++i) favor[i] = rng.Bernoulli(0.3);
    const std::vector<bool>* bias = seed % 2 == 0 ? &favor : nullptr;
    const NodeId sink = static_cast<NodeId>(rng.UniformInt(0, kN - 1));
    RoutingTree tree = RoutingTree::Build(links, alive, sink, bias);
    RoutingTree::RepairScratch scratch;
    uint64_t version = links.version();
    for (int step = 0; step < 80; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      std::vector<NodeId> died;
      const int changes = static_cast<int>(rng.UniformInt(1, 5));
      for (int c = 0; c < changes; ++c) {
        const NodeId v = static_cast<NodeId>(rng.UniformInt(0, kN - 1));
        if (rng.Bernoulli(0.15)) {
          if (v == sink || !alive[v]) continue;
          alive[v] = false;
          died.push_back(v);
        } else if (rng.Bernoulli(0.5)) {  // a short hop
          const Point p = links.position(v);
          links.SetPosition(v, {p.x + rng.UniformDouble(-0.08, 0.08),
                                p.y + rng.UniformDouble(-0.08, 0.08)});
        } else {
          links.SetPosition(v, {rng.UniformDouble(0.0, 1.0),
                                rng.UniformDouble(0.0, 1.0)});
        }
      }
      std::vector<NodeId> changed;
      ASSERT_TRUE(links.ChangedSince(version, &changed));
      version = links.version();
      tree.Repair(links, alive, changed, died, bias, &scratch);
      const RoutingTree fresh = RoutingTree::Build(links, alive, sink, bias);
      for (NodeId i = 0; i < kN; ++i) {
        ASSERT_EQ(tree.depth(i), fresh.depth(i)) << "node " << i;
        ASSERT_EQ(tree.parent(i), fresh.parent(i)) << "node " << i;
      }
    }
  }
}

}  // namespace
}  // namespace snapq
