// End-to-end tests of the topology & churn observatory through the
// public API: the link observer rides real protocol traffic and counts
// every outcome exactly as Metrics and the energy ledger do, a forced
// partition moves topo.partitions and trips a topology SLO exactly when
// the network splits, re-election shows up as churn, the auto-sized link
// table holds a static deployment but not a moving one, and the topo
// series register with telemetry in either enable order.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/network.h"
#include "common/geometry.h"
#include "common/rng.h"
#include "data/random_walk.h"
#include "obs/energy_ledger.h"
#include "obs/journal.h"
#include "obs/topo.h"

namespace snapq {
namespace {

/// A 7-node dumbbell: two triangles joined only through node 3 — node 3
/// is an articulation node, and killing it partitions the network.
NetworkConfig DumbbellConfig() {
  NetworkConfig config;
  config.num_nodes = 7;
  config.positions = {{0.0, 0.0}, {0.1, 0.0}, {0.2, 0.0}, {0.5, 0.0},
                      {0.8, 0.0}, {0.9, 0.0}, {1.0, 0.0}};
  config.transmission_range = 0.35;
  config.snapshot.threshold = 10.0;  // keep representation quiet
  config.seed = 5;
  return config;
}

TEST(TopoIntegrationTest, PartitionMovesGaugesAndTripsTheSloExactlyOnce) {
  SensorNetwork net(DumbbellConfig());
  net.EnableTelemetry();
  net.EnableTopologyMonitor();
  ASSERT_TRUE(net.AddSloRule("topo.partitions value <= 1"));

  auto* sink = static_cast<obs::MemoryJournalSink*>(
      net.sim().journal().SetSink(std::make_unique<obs::MemoryJournalSink>()));

  // Intact dumbbell: one component held together by node 3.
  net.SampleTelemetry();
  obs::MetricRegistry& registry = net.sim().registry();
  EXPECT_DOUBLE_EQ(registry.GetGauge("topo.partitions")->value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("topo.live_nodes")->value(), 7.0);
  EXPECT_GE(registry.GetGauge("topo.bridges")->value(), 2.0);
  const obs::TopologySnapshot& before = net.topology_monitor()->last();
  ASSERT_FALSE(before.articulation.empty());
  EXPECT_TRUE(std::find(before.articulation.begin(),
                        before.articulation.end(),
                        NodeId{3}) != before.articulation.end());
  EXPECT_TRUE(net.watchdog()->healthy());

  // Coverage collapses: the cut node dies, the network splits in two.
  net.sim().Kill(3);
  net.SampleTelemetry();
  EXPECT_DOUBLE_EQ(registry.GetGauge("topo.partitions")->value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("topo.live_nodes")->value(), 6.0);
  EXPECT_FALSE(net.watchdog()->healthy());
  EXPECT_EQ(net.watchdog()->breaches().size(), 1u);
  EXPECT_EQ(net.watchdog()->breaches()[0].rule.metric, "topo.partitions");

  // The breach confirms once per episode, not once per sample.
  net.SampleTelemetry();
  EXPECT_EQ(net.watchdog()->breaches().size(), 1u);

  // Both the per-sample event and the breach verdict hit the journal.
  bool saw_topo_sample = false, saw_breach = false;
  for (const std::string& line : sink->lines()) {
    if (line.find("\"event\":\"topo.sample\"") != std::string::npos) {
      saw_topo_sample = true;
    }
    if (line.find("\"event\":\"slo.breach\"") != std::string::npos &&
        line.find("topo.partitions") != std::string::npos) {
      saw_breach = true;
    }
  }
  EXPECT_TRUE(saw_topo_sample);
  EXPECT_TRUE(saw_breach);
}

TEST(TopoIntegrationTest, LinkObserverRidesProtocolTraffic) {
  NetworkConfig config;
  config.num_nodes = 60;
  config.transmission_range = 0.3;
  config.loss_probability = 0.2;
  config.snoop_probability = 0.3;
  config.energy.rx_cost = 0.25;
  config.seed = 3;
  SensorNetwork net(config);
  net.EnableTopologyMonitor();  // without telemetry: observer still feeds
  const obs::EnergyLedger& ledger = net.EnableEnergyLedger();
  net.ScheduleTrainingBroadcasts(0, 10);
  net.RunUntil(10);
  net.RunElection(net.now());
  const Time first = net.now() + 20;
  net.ScheduleMaintenance(first, first + 200, 20);
  net.RunAll();

  // Every receiver outcome reaches every sink exactly once: the link
  // table, Metrics and the ledger count the same deliveries, addressed
  // losses and snoops.
  const obs::LinkObserver& observer =
      net.topology_monitor()->link_observer();
  EXPECT_GT(observer.num_links(), 0u);
  EXPECT_EQ(observer.dropped_records(), 0u);
  uint64_t deliveries = 0, losses = 0, snoops = 0;
  for (const obs::LinkStats& l : observer.SortedLinks()) {
    deliveries += l.deliveries;
    losses += l.losses;
    snoops += l.snoops;
  }
  const Metrics& metrics = net.sim().metrics();
  uint64_t snooped = 0;
  for (size_t t = 0; t < kNumMessageTypes; ++t) {
    snooped += metrics.snooped(static_cast<MessageType>(t));
  }
  EXPECT_GT(deliveries, 0u);
  EXPECT_GT(losses, 0u);  // 20% loss: some must drop
  EXPECT_GT(snoops, 0u);
  EXPECT_EQ(deliveries, metrics.total_delivered());
  EXPECT_EQ(losses, metrics.total_lost());
  EXPECT_EQ(snoops, snooped);

  // Dyadic costs and no deaths: the direction totals are exact.
  ASSERT_EQ(metrics.node_deaths(), 0u);
  const obs::EnergyLedgerSnapshot snap = ledger.TakeSnapshot();
  const EnergyModel& energy = config.energy;
  EXPECT_EQ(snap.DirectionJoules(obs::EnergyDirection::kTx),
            static_cast<double>(metrics.total_sent()) * energy.tx_cost);
  EXPECT_EQ(snap.DirectionJoules(obs::EnergyDirection::kRx),
            static_cast<double>(deliveries) * energy.rx_cost);
  EXPECT_EQ(snap.DirectionJoules(obs::EnergyDirection::kSnoop),
            static_cast<double>(snoops) * energy.rx_cost);

  // Sampling without telemetry publishes gauges directly.
  const obs::TopologySnapshot& topo = net.SampleTopologyNow();
  EXPECT_EQ(topo.num_live, 60u);
  EXPECT_GT(net.sim().registry().GetGauge("topo.links_observed")->value(),
            0.0);
}

/// Link-table use after an election and `rounds` maintenance rounds over
/// 200 nodes, where `moves_per_round` random nodes each take a
/// quarter-range step toward a random point at the start of each round.
struct LinkTableUse {
  size_t directed_edges = 0;
  size_t capacity = 0;
  size_t links = 0;
  uint64_t dropped = 0;
};

LinkTableUse RunLinkTable(size_t max_links, size_t rounds,
                          size_t moves_per_round) {
  NetworkConfig config;
  config.num_nodes = 200;
  config.transmission_range = 0.15;
  config.loss_probability = 0.1;
  config.snoop_probability = 0.3;
  config.seed = 11;
  SensorNetwork net(config);
  obs::TopologyConfig topo;
  topo.max_links = max_links;
  const obs::TopologyMonitor& monitor = net.EnableTopologyMonitor(topo);
  LinkTableUse use;
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    use.directed_edges += net.sim().links().Reachable(i).size();
  }
  use.capacity = monitor.link_observer().capacity();

  net.RunElection(0);
  const Time first = net.now() + 20;
  net.ScheduleMaintenance(first, first + static_cast<Time>(rounds) * 20, 20);
  Rng rng(11);
  const double step = 0.25 * config.transmission_range;
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t k = 0; k < moves_per_round; ++k) {
      const auto id = static_cast<NodeId>(rng.UniformInt(0, 199));
      const Point from = net.position(id);
      const Point to{rng.NextDouble(), rng.NextDouble()};
      const double dist = Distance(from, to);
      if (dist <= step) {
        net.sim().MoveNode(id, to);
      } else {
        net.sim().MoveNode(id, {from.x + (to.x - from.x) / dist * step,
                                from.y + (to.y - from.y) / dist * step});
      }
    }
    net.RunUntil(first + static_cast<Time>(r + 1) * 20);
  }
  use.links = monitor.link_observer().num_links();
  use.dropped = monitor.link_observer().dropped_records();
  return use;
}

TEST(TopoIntegrationTest, AutoSizedLinkTableHoldsAStaticDeployment) {
  const LinkTableUse use = RunLinkTable(0, 100, 0);
  EXPECT_EQ(use.capacity, use.directed_edges);
  EXPECT_GT(use.links, use.directed_edges / 2);  // the traffic is real
  EXPECT_EQ(use.dropped, 0u);
}

TEST(TopoIntegrationTest, MovingNodesOutgrowTheStaticEdgeBound) {
  // 1% of the nodes step per round: the links seen grow past the edge
  // count of any one placement, so the auto-sized table drops records and
  // a moving deployment passes an explicit capacity instead.
  const LinkTableUse sized = RunLinkTable(0, 100, 2);
  EXPECT_GT(sized.dropped, 0u);
  const LinkTableUse given =
      RunLinkTable(obs::LinkObserver::kDefaultMaxLinks, 100, 2);
  EXPECT_GT(given.links, given.directed_edges);
  EXPECT_EQ(given.dropped, 0u);
}

TEST(TopoIntegrationTest, ReElectionRegistersAsChurn) {
  // Real clusters need correlated data: train models over a 3-class
  // random walk so the election produces representatives with passive
  // members, then kill every representative and re-elect.
  NetworkConfig config;
  config.num_nodes = 30;
  config.transmission_range = 0.8;
  config.snapshot.threshold = 1.0;
  config.snapshot.max_wait = 8;
  config.seed = 17;
  SensorNetwork net(config);
  Rng rng(17);
  RandomWalkConfig walk;
  walk.num_nodes = 30;
  walk.num_classes = 3;
  walk.horizon = 200;
  Result<Dataset> data =
      Dataset::Create(GenerateRandomWalk(walk, rng).series);
  ASSERT_TRUE(net.AttachDataset(std::move(data).value()).ok());
  net.ScheduleTrainingBroadcasts(0, 10);
  net.RunUntil(50);
  net.EnableTopologyMonitor();
  const ElectionStats election = net.RunElection(50);
  ASSERT_GT(election.num_passive, 0u);  // clustering actually happened
  net.SampleTopologyNow();

  const obs::ChurnTracker& churn = net.topology_monitor()->churn();
  const uint64_t initial_elections = churn.elections_total();
  EXPECT_GT(initial_elections, 0u);  // the first sweep sees the winners

  // Kill every current representative and re-elect: passive members must
  // find new winners, which the next sweep counts as elections, and the
  // members' representative switch as flaps.
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    if (net.agent(i).mode() == NodeMode::kActive &&
        !net.agent(i).represents().empty()) {
      net.sim().Kill(i);
    }
  }
  net.RunElection(net.now() + 1);
  net.SampleTopologyNow();
  EXPECT_GT(churn.elections_total(), initial_elections);
  EXPECT_GT(churn.flaps_total(), 0u);
  EXPECT_GT(churn.completed_tenures(), 0u);  // the dead reps' tenures end
}

TEST(TopoIntegrationTest, TopoSeriesRegisterInEitherEnableOrder) {
  for (const bool telemetry_first : {true, false}) {
    NetworkConfig config;
    config.num_nodes = 4;
    config.transmission_range = 2.0;
    config.seed = 2;
    SensorNetwork net(config);
    // All four observers: telemetry, then the three with series — or the
    // three first and telemetry last.
    if (telemetry_first) net.EnableTelemetry();
    net.EnableTopologyMonitor();
    net.EnableAccuracyAudit();
    net.EnableEnergyLedger();
    if (!telemetry_first) net.EnableTelemetry();
    // 9 default + 9 topology/churn + 4 accuracy + 3 energy (the unlimited
    // default battery skips the remaining/forecast four): each exactly once.
    EXPECT_EQ(net.telemetry()->num_series(), 25u)
        << "telemetry_first=" << telemetry_first;
    for (const char* name :
         {"topo.partitions", "topo.bridges", "topo.articulation_nodes",
          "topo.avg_degree", "topo.isolated_nodes", "topo.weak_links",
          "churn.flap_rate", "churn.election_rate", "churn.rep_tenure_p50"}) {
      EXPECT_NE(net.telemetry()->series(name), nullptr)
          << name << " (telemetry_first=" << telemetry_first << ")";
    }
    // One end-to-end sample through SampleTelemetry reaches the series.
    net.SampleTelemetry();
    EXPECT_GT(net.telemetry()->series("topo.partitions")->num_samples(), 0u);
  }
}

}  // namespace
}  // namespace snapq
