// Query executor tests: the §6.2 participation accounting, snapshot
// response rule, coverage metric, epoch-based duplicate filtering and
// energy charging.
#include "query/executor.h"

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
  config.heartbeat_miss_limit = 1;  // deterministic single-round failover in tests
  return config;
}

struct Net {
  std::unique_ptr<Simulator> sim;
  std::vector<std::unique_ptr<SnapshotAgent>> agents;
  std::unique_ptr<QueryExecutor> executor;

  Net(std::vector<Point> positions, double range, SimConfig sim_config = {}) {
    const size_t n = positions.size();
    sim = std::make_unique<Simulator>(std::move(positions),
                                      std::vector<double>(n, range),
                                      sim_config);
    for (NodeId i = 0; i < n; ++i) {
      agents.push_back(
          std::make_unique<SnapshotAgent>(i, sim.get(), TestConfig(),
                                          900 + i));
      agents.back()->Install();
    }
    executor = std::make_unique<QueryExecutor>(
        sim.get(), &agents,
        Catalog::WithStandardRegions(Rect::UnitSquare()));
  }

  void Teach(NodeId rep, NodeId target) {
    const double vi = agents[rep]->measurement();
    const double vj = agents[target]->measurement();
    agents[rep]->models().cache().Observe(target, vi - 1, vj - 1, 0);
    agents[rep]->models().cache().Observe(target, vi + 1, vj + 1, 0);
  }

  void TeachAllPairs() {
    for (NodeId i = 0; i < agents.size(); ++i) {
      for (NodeId j = 0; j < agents.size(); ++j) {
        if (i != j) Teach(i, j);
      }
    }
  }

  void Elect() { RunGlobalElection(*sim, agents, sim->now(), TestConfig()); }
};

/// Four nodes in the unit square, all in range; values 10 + i.
Net MeshNet(SimConfig sim_config = {}) {
  Net net({{0.1, 0.1}, {0.3, 0.1}, {0.5, 0.1}, {0.7, 0.1}}, 10.0,
          sim_config);
  for (NodeId i = 0; i < 4; ++i) {
    net.agents[i]->SetMeasurement(10.0 + i);
  }
  return net;
}

const Rect kAll{0.0, 0.0, 1.0, 1.0};

TEST(ExecutorTest, RegularQueryCountsAllMatchingNodes) {
  Net net = MeshNet();
  const QueryResult r = net.executor->ExecuteRegion(
      kAll, /*use_snapshot=*/false, AggregateFunction::kSum, {});
  EXPECT_EQ(r.matching_nodes, 4u);
  EXPECT_EQ(r.responders, 4u);
  EXPECT_EQ(r.participants, 4u);  // full mesh: everyone is 1 hop from sink
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
  ASSERT_TRUE(r.aggregate.has_value());
  EXPECT_DOUBLE_EQ(*r.aggregate, 10.0 + 11.0 + 12.0 + 13.0);
  EXPECT_DOUBLE_EQ(*r.true_aggregate, *r.aggregate);
}

TEST(ExecutorTest, SnapshotQueryUsesRepresentativesOnly) {
  Net net = MeshNet();
  net.TeachAllPairs();
  net.Elect();
  // All-pairs perfect models: node 3 represents everyone.
  ASSERT_EQ(net.agents[3]->mode(), NodeMode::kActive);
  const QueryResult r = net.executor->ExecuteRegion(
      kAll, /*use_snapshot=*/true, AggregateFunction::kSum, {});
  EXPECT_EQ(r.responders, 1u);
  // Node 3 responds; path 3 -> sink 0.
  EXPECT_EQ(r.participants, 2u);
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
  ASSERT_TRUE(r.aggregate.has_value());
  EXPECT_NEAR(*r.aggregate, 46.0, 1e-6);  // exact linear models
}

TEST(ExecutorTest, SnapshotRespondsForOutOfRegionRepOfInRegionNode) {
  Net net = MeshNet();
  net.TeachAllPairs();
  net.Elect();
  // Region contains only node 1 (passive, represented by node 3 outside).
  const Rect region{0.25, 0.0, 0.35, 1.0};
  const QueryResult r = net.executor->ExecuteRegion(
      region, /*use_snapshot=*/true, AggregateFunction::kAvg, {});
  EXPECT_EQ(r.matching_nodes, 1u);
  EXPECT_EQ(r.responders, 1u);
  ASSERT_TRUE(r.aggregate.has_value());
  EXPECT_NEAR(*r.aggregate, 11.0, 1e-6);
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
}

TEST(ExecutorTest, PassiveNodesDoNotRespondToSnapshotQueries) {
  Net net = MeshNet();
  net.TeachAllPairs();
  net.Elect();
  const QueryResult r = net.executor->ExecuteRegion(
      kAll, /*use_snapshot=*/true, AggregateFunction::kNone, {});
  for (const QueryRow& row : r.rows) {
    if (row.loc != 3) {
      EXPECT_EQ(row.reporter, 3u);
      EXPECT_TRUE(row.estimated);
    } else {
      EXPECT_FALSE(row.estimated);
    }
  }
  ASSERT_EQ(r.rows.size(), 4u);
}

TEST(ExecutorTest, DeadNodeReducesRegularCoverageButNotSnapshot) {
  Net net = MeshNet();
  net.TeachAllPairs();
  net.Elect();
  net.sim->Kill(1);  // a passive node dies
  const QueryResult regular = net.executor->ExecuteRegion(
      kAll, /*use_snapshot=*/false, AggregateFunction::kSum, {});
  EXPECT_EQ(regular.covered_nodes, 3u);
  EXPECT_DOUBLE_EQ(regular.coverage, 0.75);
  // Snapshot: node 3's model still answers for the dead node (the paper's
  // redundancy argument: the rep takes over for an unreachable node).
  const QueryResult snap = net.executor->ExecuteRegion(
      kAll, /*use_snapshot=*/true, AggregateFunction::kSum, {});
  EXPECT_EQ(snap.covered_nodes, 4u);
  EXPECT_DOUBLE_EQ(snap.coverage, 1.0);
}

TEST(ExecutorTest, UnreachableRespondersDoNotParticipate) {
  // Chain 0-1-2; region covers node 2; kill router 1.
  Net net({{0.1, 0.5}, {0.45, 0.5}, {0.8, 0.5}}, 0.4);
  for (NodeId i = 0; i < 3; ++i) net.agents[i]->SetMeasurement(5.0);
  net.sim->Kill(1);
  const QueryResult r = net.executor->ExecuteRegion(
      Rect{0.7, 0.0, 1.0, 1.0}, /*use_snapshot=*/false,
      AggregateFunction::kSum, {});
  EXPECT_EQ(r.matching_nodes, 1u);
  EXPECT_EQ(r.responders, 0u);
  EXPECT_EQ(r.participants, 0u);
  EXPECT_DOUBLE_EQ(r.coverage, 0.0);
}

TEST(ExecutorTest, RoutersAreCountedAsParticipants) {
  // Chain 0-1-2, sink 0, region covers only node 2: node 1 routes.
  Net net({{0.1, 0.5}, {0.45, 0.5}, {0.8, 0.5}}, 0.4);
  for (NodeId i = 0; i < 3; ++i) net.agents[i]->SetMeasurement(5.0);
  const QueryResult r = net.executor->ExecuteRegion(
      Rect{0.7, 0.0, 1.0, 1.0}, /*use_snapshot=*/false,
      AggregateFunction::kSum, {});
  EXPECT_EQ(r.responders, 1u);
  EXPECT_EQ(r.participants, 3u);  // responder + router + sink
}

TEST(ExecutorTest, ChargeEnergyDrainsParticipants) {
  SimConfig sim_config;
  sim_config.energy.initial_battery = 10.0;
  Net net({{0.1, 0.5}, {0.45, 0.5}, {0.8, 0.5}}, 0.4, sim_config);
  for (NodeId i = 0; i < 3; ++i) net.agents[i]->SetMeasurement(5.0);
  ExecutionOptions options;
  options.charge_energy = true;
  net.executor->ExecuteRegion(Rect{0.7, 0.0, 1.0, 1.0},
                              /*use_snapshot=*/false,
                              AggregateFunction::kSum, options);
  EXPECT_DOUBLE_EQ(net.sim->battery(2).remaining(), 9.0);  // responder
  EXPECT_DOUBLE_EQ(net.sim->battery(1).remaining(), 9.0);  // router
  EXPECT_DOUBLE_EQ(net.sim->battery(0).remaining(), 10.0);  // sink: no radio
}

TEST(ExecutorTest, SpuriousClaimFilteredByLatestEpoch) {
  Net net = MeshNet();
  // First election: only node 1 can represent node 3.
  net.Teach(1, 3);
  net.Elect();
  ASSERT_EQ(net.agents[3]->representative(), 1u);
  ASSERT_TRUE(net.agents[1]->RepresentsSince(3).has_value());
  // Sever 3 -> 1 so the recall (and heartbeat) from 3 never reaches 1, and
  // 2 -> 1 so node 2's RepAck broadcast cannot trigger the epoch-based
  // self-correction either; then let node 3 re-elect toward node 2.
  net.sim->mutable_links().SetLinkLoss(3, 1, 1.0);
  net.sim->mutable_links().SetLinkLoss(2, 1, 1.0);
  net.agents[2]->SetMeasurement(net.agents[2]->measurement());
  net.Teach(2, 3);
  net.agents[3]->MaintenanceTick();  // heartbeat lost -> re-election
  net.sim->RunAll();
  ASSERT_EQ(net.agents[3]->representative(), 2u);
  // Node 1 still believes it represents node 3: spurious.
  ASSERT_TRUE(net.agents[1]->RepresentsSince(3).has_value());
  EXPECT_EQ(CaptureSnapshot(*net.sim).CountSpurious(), 1u);

  // A snapshot query over node 3's location gets exactly one value for
  // node 3, reported by the *newer* representative.
  const Rect region{0.65, 0.0, 0.75, 1.0};  // node 3 at x=0.7
  const QueryResult r = net.executor->ExecuteRegion(
      region, /*use_snapshot=*/true, AggregateFunction::kNone, {});
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].loc, 3u);
  EXPECT_EQ(r.rows[0].reporter, 2u);
}

TEST(ExecutorTest, ExecuteSqlEndToEnd) {
  Net net = MeshNet();
  const Result<QueryResult> r = net.executor->ExecuteSql(
      "SELECT sum(value) FROM sensors WHERE loc IN SOUTH_HALF", {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // All four nodes are at y=0.1 (south half).
  EXPECT_EQ(r->responders, 4u);
  ASSERT_TRUE(r->aggregate.has_value());
  EXPECT_DOUBLE_EQ(*r->aggregate, 46.0);
}

TEST(ExecutorTest, ExecuteSqlRejectsUnknownColumn) {
  Net net = MeshNet();
  const Result<QueryResult> r = net.executor->ExecuteSql(
      "SELECT humidity FROM sensors", {});
  EXPECT_FALSE(r.ok());
}

TEST(ExecutorTest, ExecuteSqlRejectsUnknownRegion) {
  Net net = MeshNet();
  const Result<QueryResult> r = net.executor->ExecuteSql(
      "SELECT value FROM sensors WHERE loc IN MOON", {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ExecutorTest, DrillThroughRowsSortedByLoc) {
  Net net = MeshNet();
  const QueryResult r = net.executor->ExecuteRegion(
      kAll, /*use_snapshot=*/false, AggregateFunction::kNone, {});
  ASSERT_EQ(r.rows.size(), 4u);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_LT(r.rows[i - 1].loc, r.rows[i].loc);
  }
  EXPECT_DOUBLE_EQ(r.rows[2].value, 12.0);
}

TEST(ExecutorTest, EmptyRegionHasFullCoverage) {
  Net net = MeshNet();
  const QueryResult r = net.executor->ExecuteRegion(
      Rect{0.9, 0.9, 0.95, 0.95}, /*use_snapshot=*/false,
      AggregateFunction::kNone, {});
  EXPECT_EQ(r.matching_nodes, 0u);
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
  EXPECT_TRUE(r.rows.empty());
}

TEST(ExecutorTest, SleepingPassiveNodesDoNotRouteFullMesh) {
  // Full mesh: node 3 represents everyone; with passive_nodes_sleep the
  // passive nodes (1, 2) drop out of routing entirely and the query is
  // served by the representative plus the sink alone. The sink (node 0)
  // never sleeps -- it is the query gateway -- even when passive.
  Net net = MeshNet();
  net.TeachAllPairs();
  net.Elect();
  ASSERT_EQ(net.agents[3]->mode(), NodeMode::kActive);
  ExecutionOptions options;
  options.passive_nodes_sleep = true;
  const QueryResult r = net.executor->ExecuteRegion(
      kAll, /*use_snapshot=*/true, AggregateFunction::kSum, options);
  EXPECT_EQ(r.responders, 1u);
  EXPECT_EQ(r.participants, 2u);  // rep 3 + sink 0
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
  ASSERT_TRUE(r.aggregate.has_value());
  EXPECT_NEAR(*r.aggregate, 46.0, 1e-6);
}

TEST(ExecutorTest, SleepingPassivesCanDisconnectResponders) {
  // Chain 0-1-2: the sink's neighbor (node 1) is passive under node 0 and
  // node 2 is a lone active responder two hops out. Asleep, node 1 cannot
  // route and node 2's data is unreachable -- the documented trade-off of
  // the §5 severe-energy mode. Awake, the same query succeeds.
  Net net({{0.05, 0.5}, {0.3, 0.5}, {0.55, 0.5}}, 0.3);
  for (NodeId i = 0; i < 3; ++i) net.agents[i]->SetMeasurement(10.0 + i);
  net.Teach(0, 1);
  net.Elect();
  ASSERT_EQ(net.agents[1]->mode(), NodeMode::kPassive);
  ASSERT_EQ(net.agents[2]->mode(), NodeMode::kActive);

  ExecutionOptions options;
  options.passive_nodes_sleep = true;
  const Rect region{0.5, 0.0, 0.6, 1.0};  // only node 2 matches
  const QueryResult r = net.executor->ExecuteRegion(
      region, /*use_snapshot=*/true, AggregateFunction::kSum, options);
  EXPECT_EQ(r.responders, 0u);
  EXPECT_DOUBLE_EQ(r.coverage, 0.0);
  const QueryResult awake = net.executor->ExecuteRegion(
      region, /*use_snapshot=*/true, AggregateFunction::kSum,
      ExecutionOptions{});
  EXPECT_EQ(awake.responders, 1u);
  EXPECT_DOUBLE_EQ(awake.coverage, 1.0);
}

TEST(ExecutorTest, EstimatedRowsCarryModelError) {
  Net net = MeshNet();
  net.TeachAllPairs();
  net.Elect();
  const QueryResult r = net.executor->ExecuteRegion(
      kAll, /*use_snapshot=*/true, AggregateFunction::kNone, {});
  ASSERT_EQ(r.rows.size(), 4u);
  for (const QueryRow& row : r.rows) {
    if (row.estimated) {
      ASSERT_TRUE(row.model_error.has_value()) << "node " << row.loc;
      // Exact linear models: estimate == truth.
      EXPECT_NEAR(*row.model_error, 0.0, 1e-9);
    } else {
      EXPECT_FALSE(row.model_error.has_value()) << "node " << row.loc;
    }
  }
}

TEST(ExecutorTest, ModelErrorIsSignedEstimateMinusTruth) {
  Net net = MeshNet();
  net.TeachAllPairs();
  net.Elect();
  // Drift node 1's true reading after the models were learned: its rep
  // still answers with the stale estimate, and model_error reports the
  // signed gap.
  net.agents[1]->SetMeasurement(11.0 + 2.5);
  const QueryResult r = net.executor->ExecuteRegion(
      kAll, /*use_snapshot=*/true, AggregateFunction::kNone, {});
  for (const QueryRow& row : r.rows) {
    if (row.loc != 1) continue;
    ASSERT_TRUE(row.model_error.has_value());
    EXPECT_NEAR(*row.model_error, -2.5, 1e-6);  // estimate lags the truth
  }
}

TEST(ExecutorTest, ChargeEnergyAttributesPerNodeTxCounters) {
  SimConfig sim_config;
  sim_config.energy.initial_battery = 10.0;
  Net net({{0.1, 0.5}, {0.45, 0.5}, {0.8, 0.5}}, 0.4, sim_config);
  for (NodeId i = 0; i < 3; ++i) net.agents[i]->SetMeasurement(5.0);
  ExecutionOptions options;
  options.charge_energy = true;
  net.executor->ExecuteRegion(Rect{0.7, 0.0, 1.0, 1.0},
                              /*use_snapshot=*/false,
                              AggregateFunction::kSum, options);
  obs::MetricRegistry& reg = net.sim->registry();
  EXPECT_EQ(reg.GetCounter("query.energy.tx", 2)->value(), 1u);  // responder
  EXPECT_EQ(reg.GetCounter("query.energy.tx", 1)->value(), 1u);  // router
  EXPECT_EQ(reg.GetCounter("query.energy.tx", 0)->value(), 0u);  // sink
  EXPECT_DOUBLE_EQ(reg.GetGauge("query.energy.drained")->value(), 2.0);
}

TEST(ExecutorTest, ExecuteRejectsExplainSpecs) {
  // EXPLAIN statements have a dedicated entry point; Execute() refuses
  // them instead of silently running the query.
  Net net = MeshNet();
  const Result<QueryResult> r = net.executor->ExecuteSql(
      "EXPLAIN SELECT value FROM sensors", {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExecutorTest, ProvenanceHookCapturesClaimsAndCost) {
  Net net = MeshNet();
  net.TeachAllPairs();
  net.Elect();
  ASSERT_EQ(net.agents[3]->mode(), NodeMode::kActive);
  QueryProvenance prov;
  ExecutionOptions options;
  options.provenance = &prov;
  const QueryResult r = net.executor->ExecuteRegion(
      kAll, /*use_snapshot=*/true, AggregateFunction::kSum, options);
  EXPECT_EQ(prov.matching_nodes, r.matching_nodes);
  EXPECT_EQ(prov.responders, r.responders);
  EXPECT_EQ(prov.participants, r.participants);
  EXPECT_EQ(prov.reachable_nodes, 4u);
  EXPECT_EQ(prov.messages, 1u);  // rep 3 -> sink; the sink itself is free
  EXPECT_EQ(prov.tree_depth, 1);
  ASSERT_EQ(prov.claims.size(), 4u);
  EXPECT_EQ(prov.claims.at(1).reporter, 3u);
  EXPECT_TRUE(prov.claims.at(1).estimated);
  EXPECT_EQ(prov.claims.at(3).reporter, 3u);
  EXPECT_FALSE(prov.claims.at(3).estimated);
  EXPECT_EQ(prov.claims.at(3).epoch, kQueryClaimSelfEpoch);
  ASSERT_EQ(prov.depth.size(), 4u);
  EXPECT_EQ(prov.depth[0], 0);
}

TEST(ExecutorTest, CountAggregate) {
  Net net = MeshNet();
  const QueryResult r = net.executor->ExecuteRegion(
      kAll, /*use_snapshot=*/false, AggregateFunction::kCount, {});
  ASSERT_TRUE(r.aggregate.has_value());
  EXPECT_DOUBLE_EQ(*r.aggregate, 4.0);
}

}  // namespace
}  // namespace snapq
