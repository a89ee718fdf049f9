// Unit tests for the topology & churn observatory (src/obs/topo.h):
// LinkObserver bookkeeping and overflow, AnalyzeTopology on hand-built
// placements (partitions, bridges, articulation, cluster radius/depth)
// and against a brute-force reference on random deployments, ChurnTracker
// sweep differencing, and TopologyMonitor gauge publishing.
#include "obs/topo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/rng.h"
#include "net/link_model.h"
#include "obs/journal.h"
#include "obs/metric_registry.h"

namespace snapq {
namespace {

// ---------------------------------------------------------------------------
// LinkObserver

TEST(LinkObserverTest, RecordsOutcomesAndEwma) {
  obs::LinkObserver observer(4);
  EXPECT_EQ(observer.capacity(), 12u);  // 4*3 ordered pairs
  observer.Record(0, 1, RadioEventKind::kDeliver, 10);
  const obs::LinkStats* link = observer.Find(0, 1);
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->deliveries, 1u);
  EXPECT_EQ(link->attempts(), 1u);
  EXPECT_DOUBLE_EQ(link->ewma_delivery, 1.0);  // first outcome seeds
  EXPECT_EQ(link->last_activity, 10);

  observer.Record(0, 1, RadioEventKind::kLoss, 11);
  EXPECT_EQ(link->losses, 1u);
  EXPECT_EQ(link->attempts(), 2u);
  EXPECT_DOUBLE_EQ(link->ewma_delivery, 1.0 - obs::kLinkEwmaAlpha);
  EXPECT_EQ(link->last_activity, 11);

  // Snoops count separately and do not move the delivery EWMA.
  observer.Record(0, 1, RadioEventKind::kSnoop, 12);
  EXPECT_EQ(link->snoops, 1u);
  EXPECT_EQ(link->attempts(), 2u);
  EXPECT_DOUBLE_EQ(link->ewma_delivery, 1.0 - obs::kLinkEwmaAlpha);

  // A link whose first outcome is a loss seeds the EWMA at 0.
  observer.Record(1, 0, RadioEventKind::kLoss, 13);
  ASSERT_NE(observer.Find(1, 0), nullptr);
  EXPECT_DOUBLE_EQ(observer.Find(1, 0)->ewma_delivery, 0.0);

  EXPECT_EQ(observer.num_links(), 2u);
  EXPECT_EQ(observer.Find(2, 3), nullptr);
  EXPECT_EQ(observer.dropped_records(), 0u);
}

TEST(LinkObserverTest, SortedLinksOrderedByFromThenTo) {
  obs::LinkObserver observer(5);
  observer.Record(3, 1, RadioEventKind::kDeliver, 1);
  observer.Record(0, 4, RadioEventKind::kDeliver, 2);
  observer.Record(0, 2, RadioEventKind::kDeliver, 3);
  observer.Record(3, 0, RadioEventKind::kDeliver, 4);
  const std::vector<obs::LinkStats> links = observer.SortedLinks();
  ASSERT_EQ(links.size(), 4u);
  EXPECT_EQ(links[0].from, 0u);
  EXPECT_EQ(links[0].to, 2u);
  EXPECT_EQ(links[1].from, 0u);
  EXPECT_EQ(links[1].to, 4u);
  EXPECT_EQ(links[2].from, 3u);
  EXPECT_EQ(links[2].to, 0u);
  EXPECT_EQ(links[3].from, 3u);
  EXPECT_EQ(links[3].to, 1u);
}

TEST(LinkObserverTest, CapacityOverflowCountsDroppedRecords) {
  obs::LinkObserver observer(100, /*max_links=*/2);
  observer.Record(0, 1, RadioEventKind::kDeliver, 1);
  observer.Record(0, 2, RadioEventKind::kDeliver, 1);
  observer.Record(0, 3, RadioEventKind::kDeliver, 1);  // table full: dropped
  observer.Record(0, 4, RadioEventKind::kLoss, 2);     // dropped too
  // An existing link still updates.
  observer.Record(0, 1, RadioEventKind::kDeliver, 3);
  EXPECT_EQ(observer.num_links(), 2u);
  EXPECT_EQ(observer.dropped_records(), 2u);
  EXPECT_EQ(observer.Find(0, 3), nullptr);
  EXPECT_EQ(observer.Find(0, 1)->deliveries, 2u);
}

TEST(LinkObserverTest, CountWeakLinksHonorsThresholdAndMinAttempts) {
  obs::LinkObserver observer(4);
  // Link (0,1): 10 losses -> ewma 0, attempts 10: weak.
  for (int i = 0; i < 10; ++i) observer.Record(0, 1, RadioEventKind::kLoss, i);
  // Link (0,2): 10 deliveries -> ewma 1: strong.
  for (int i = 0; i < 10; ++i) {
    observer.Record(0, 2, RadioEventKind::kDeliver, i);
  }
  // Link (0,3): 2 losses -> too few attempts to call.
  observer.Record(0, 3, RadioEventKind::kLoss, 0);
  observer.Record(0, 3, RadioEventKind::kLoss, 1);
  EXPECT_EQ(observer.CountWeakLinks(0.5, 8), 1u);
  EXPECT_EQ(observer.CountWeakLinks(0.5, 2), 2u);
}

/// A LinkModel with uniform `range` over `positions` and no loss.
LinkModel MakeLinks(std::vector<Point> positions, double range) {
  const size_t n = positions.size();
  return LinkModel(std::move(positions), std::vector<double>(n, range), 0.0);
}

/// `n` nodes evenly spaced on a unit-length line.
std::vector<Point> Line(size_t n) {
  std::vector<Point> points(n);
  for (size_t i = 0; i < n; ++i) {
    points[i] = {static_cast<double>(i) / static_cast<double>(n), 0.0};
  }
  return points;
}

TEST(LinkObserverTest, CapacityForIsTheDirectedEdgeCount) {
  // A line of 100 where each node hears its two neighbours: 198 directed
  // edges.
  EXPECT_EQ(obs::LinkObserver::CapacityFor(MakeLinks(Line(100), 0.015)),
            198u);
  // Everyone hears everyone: every ordered pair is an edge.
  EXPECT_EQ(obs::LinkObserver::CapacityFor(MakeLinks(Line(50), 2.0)),
            50u * 49u);
  // 400 all-to-all nodes: 159,600 edges, capped at kDefaultMaxLinks.
  EXPECT_EQ(obs::LinkObserver::CapacityFor(MakeLinks(Line(400), 2.0)),
            obs::LinkObserver::kDefaultMaxLinks);
  // No edges at all still yields a usable (nonzero) capacity.
  EXPECT_EQ(obs::LinkObserver::CapacityFor(MakeLinks(Line(10), 0.01)), 1u);
  EXPECT_EQ(obs::LinkObserver::CapacityFor(MakeLinks({{0.0, 0.0}}, 1.0)),
            1u);
}

TEST(TopologyMonitorTest, ZeroMaxLinksSizesTheTableFromTheDeployment) {
  obs::MetricRegistry registry;
  const LinkModel links = MakeLinks(Line(100), 0.015);
  const obs::TopologyMonitor sized(obs::TopologyConfig{}, links, &registry);
  EXPECT_EQ(sized.link_observer().capacity(), 198u);
  EXPECT_EQ(sized.config().max_links, 0u);  // the config is kept as given

  obs::TopologyConfig explicit_config;
  explicit_config.max_links = 12;
  const obs::TopologyMonitor given(explicit_config, links, &registry);
  EXPECT_EQ(given.link_observer().capacity(), 12u);
}

// ---------------------------------------------------------------------------
// AnalyzeTopology

/// A fully-live, unclustered view sized for `n` nodes.
obs::ClusterView LiveView(size_t n) {
  obs::ClusterView view;
  view.Resize(n);
  return view;
}

TEST(AnalyzeTopologyTest, DetectsPartitionsAndComponentIds) {
  // Two pairs far apart: {0,1} and {2,3}.
  const LinkModel links =
      MakeLinks({{0.0, 0.0}, {0.1, 0.0}, {5.0, 0.0}, {5.1, 0.0}}, 0.2);
  const obs::TopologySnapshot snap =
      obs::AnalyzeTopology(links, LiveView(4), 7);
  EXPECT_EQ(snap.t, 7);
  EXPECT_EQ(snap.num_live, 4u);
  EXPECT_EQ(snap.partitions, 2u);
  // Component ids ascend with their lowest member id.
  EXPECT_EQ(snap.component[0], 0);
  EXPECT_EQ(snap.component[1], 0);
  EXPECT_EQ(snap.component[2], 1);
  EXPECT_EQ(snap.component[3], 1);
  EXPECT_EQ(snap.isolated, 0u);
  EXPECT_DOUBLE_EQ(snap.avg_degree, 1.0);
}

TEST(AnalyzeTopologyTest, FindsBridgesAndArticulationOnAPath) {
  // Path 0 - 1 - 2: both edges are bridges, node 1 is the articulation.
  const LinkModel links =
      MakeLinks({{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}}, 1.1);
  const obs::TopologySnapshot snap =
      obs::AnalyzeTopology(links, LiveView(3), 0);
  EXPECT_EQ(snap.partitions, 1u);
  ASSERT_EQ(snap.bridges.size(), 2u);
  EXPECT_EQ(snap.bridges[0], (std::pair<NodeId, NodeId>{0, 1}));
  EXPECT_EQ(snap.bridges[1], (std::pair<NodeId, NodeId>{1, 2}));
  ASSERT_EQ(snap.articulation.size(), 1u);
  EXPECT_EQ(snap.articulation[0], 1u);
  EXPECT_EQ(snap.degree[1], 2u);
  EXPECT_EQ(snap.max_degree, 2u);
}

TEST(AnalyzeTopologyTest, TriangleHasNoCutStructure) {
  const LinkModel links =
      MakeLinks({{0.0, 0.0}, {1.0, 0.0}, {0.5, 0.8}}, 1.1);
  const obs::TopologySnapshot snap =
      obs::AnalyzeTopology(links, LiveView(3), 0);
  EXPECT_EQ(snap.partitions, 1u);
  EXPECT_TRUE(snap.bridges.empty());
  EXPECT_TRUE(snap.articulation.empty());
}

TEST(AnalyzeTopologyTest, AsymmetricRangeStillConnectsEitherDirection) {
  // Node 0 can reach node 1 but not vice versa; the undirected closure
  // (LinkModel::IsConnected's relation) still links them.
  LinkModel links({{0.0, 0.0}, {1.0, 0.0}}, {1.5, 0.1}, 0.0);
  const obs::TopologySnapshot snap =
      obs::AnalyzeTopology(links, LiveView(2), 0);
  EXPECT_EQ(snap.partitions, 1u);
  EXPECT_EQ(snap.degree[0], 1u);
  EXPECT_EQ(snap.degree[1], 1u);
}

TEST(AnalyzeTopologyTest, DeadNodeSplitsThePathAndIsExcluded) {
  obs::ClusterView view = LiveView(3);
  view.alive[1] = 0;  // the articulation node dies
  const LinkModel links =
      MakeLinks({{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}}, 1.1);
  const obs::TopologySnapshot snap = obs::AnalyzeTopology(links, view, 0);
  EXPECT_EQ(snap.num_live, 2u);
  EXPECT_EQ(snap.partitions, 2u);
  EXPECT_EQ(snap.component[1], -1);
  EXPECT_EQ(snap.degree[1], 0u);
  EXPECT_EQ(snap.isolated, 2u);  // 0 and 2 lost their only neighbor
}

TEST(AnalyzeTopologyTest, ClusterRadiusAndDepth) {
  // Chain 0 - 1 - 2 - 3, rep 0 represents everyone.
  obs::ClusterView view = LiveView(4);
  view.is_rep[0] = 1;
  for (NodeId i = 0; i < 4; ++i) view.representative[i] = 0;
  const LinkModel links = MakeLinks(
      {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}, {3.0, 0.0}}, 1.1);
  const obs::TopologySnapshot snap = obs::AnalyzeTopology(links, view, 0);
  ASSERT_EQ(snap.clusters.size(), 1u);
  EXPECT_EQ(snap.clusters[0].rep, 0u);
  EXPECT_EQ(snap.clusters[0].size, 4u);
  EXPECT_DOUBLE_EQ(snap.clusters[0].radius, 3.0);
  EXPECT_EQ(snap.clusters[0].depth, 3);
}

TEST(AnalyzeTopologyTest, UnreachableMemberMarksClusterBroken) {
  // Rep 0 claims node 2, but node 2 sits in another component.
  obs::ClusterView view = LiveView(3);
  view.is_rep[0] = 1;
  view.representative[1] = 0;
  view.representative[2] = 0;
  const LinkModel links =
      MakeLinks({{0.0, 0.0}, {0.5, 0.0}, {9.0, 0.0}}, 1.0);
  const obs::TopologySnapshot snap = obs::AnalyzeTopology(links, view, 0);
  ASSERT_EQ(snap.clusters.size(), 1u);
  EXPECT_EQ(snap.clusters[0].size, 3u);
  EXPECT_EQ(snap.clusters[0].depth, -1);
  EXPECT_DOUBLE_EQ(snap.clusters[0].radius, 9.0);
}

TEST(AnalyzeTopologyTest, EmptyViewDefaultsToAllAliveUnclustered) {
  const LinkModel links = MakeLinks({{0.0, 0.0}, {0.5, 0.0}}, 1.0);
  const obs::TopologySnapshot snap =
      obs::AnalyzeTopology(links, obs::ClusterView{}, 3);
  EXPECT_EQ(snap.num_live, 2u);
  EXPECT_EQ(snap.partitions, 1u);
  EXPECT_TRUE(snap.clusters.empty());
  EXPECT_EQ(snap.representative[1], 1u);
}

// ---------------------------------------------------------------------------
// AnalyzeTopology against brute-force references on random deployments

/// Live undirected adjacency straight from the definition (u~v iff both
/// live and either reaches the other), O(n²) CanReach tests, ascending.
std::vector<std::vector<NodeId>> BruteAdjacency(
    const LinkModel& links, const std::vector<uint8_t>& alive) {
  const NodeId n = static_cast<NodeId>(links.num_nodes());
  std::vector<std::vector<NodeId>> adj(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u == v || !alive[u] || !alive[v]) continue;
      if (links.CanReach(u, v) || links.CanReach(v, u)) adj[u].push_back(v);
    }
  }
  return adj;
}

/// Component ids by BFS from ascending roots, skipping one removed node
/// and one removed undirected edge. Returns the component count.
size_t LabelComponents(const std::vector<std::vector<NodeId>>& adj,
                       const std::vector<uint8_t>& alive, NodeId removed,
                       std::pair<NodeId, NodeId> cut,
                       std::vector<int32_t>* component) {
  const NodeId n = static_cast<NodeId>(adj.size());
  component->assign(n, -1);
  size_t count = 0;
  for (NodeId root = 0; root < n; ++root) {
    if (!alive[root] || root == removed || (*component)[root] >= 0) continue;
    const int32_t id = static_cast<int32_t>(count++);
    (*component)[root] = id;
    std::vector<NodeId> queue{root};
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      for (NodeId v : adj[u]) {
        if (v == removed || (*component)[v] >= 0) continue;
        if (std::minmax(u, v) == std::minmax(cut.first, cut.second)) continue;
        (*component)[v] = id;
        queue.push_back(v);
      }
    }
  }
  return count;
}

/// The whole snapshot by brute force. The cluster loop is the original
/// one: a full-component BFS from every live rep, then a scan of all n
/// nodes for its members.
obs::TopologySnapshot ReferenceTopology(const LinkModel& links,
                                        const obs::ClusterView& view,
                                        Time now) {
  const NodeId n = static_cast<NodeId>(links.num_nodes());
  const std::pair<NodeId, NodeId> no_cut{kInvalidNode, kInvalidNode};
  obs::TopologySnapshot snap;
  snap.t = now;
  snap.num_nodes = n;
  snap.alive = view.alive;
  snap.representative = view.representative;
  const std::vector<std::vector<NodeId>> adj = BruteAdjacency(links, view.alive);

  snap.degree.assign(n, 0);
  uint64_t degree_sum = 0;
  for (NodeId i = 0; i < n; ++i) {
    if (!view.alive[i]) continue;
    ++snap.num_live;
    snap.degree[i] = static_cast<uint32_t>(adj[i].size());
    degree_sum += adj[i].size();
    snap.max_degree = std::max<size_t>(snap.max_degree, adj[i].size());
    if (adj[i].empty()) ++snap.isolated;
  }
  snap.avg_degree = snap.num_live == 0
                        ? 0.0
                        : static_cast<double>(degree_sum) /
                              static_cast<double>(snap.num_live);
  snap.partitions =
      LabelComponents(adj, view.alive, kInvalidNode, no_cut, &snap.component);

  std::vector<int32_t> scratch;
  for (NodeId u = 0; u < n; ++u) {
    if (!view.alive[u]) continue;
    if (LabelComponents(adj, view.alive, u, no_cut, &scratch) >
        snap.partitions) {
      snap.articulation.push_back(u);
    }
    for (NodeId v : adj[u]) {
      if (v > u && LabelComponents(adj, view.alive, kInvalidNode, {u, v},
                                   &scratch) > snap.partitions) {
        snap.bridges.emplace_back(u, v);
      }
    }
  }

  std::vector<int64_t> dist(n, -1);
  for (NodeId rep = 0; rep < n; ++rep) {
    if (!view.alive[rep] || !view.is_rep[rep]) continue;
    obs::ClusterTopoStats stats;
    stats.rep = rep;
    std::fill(dist.begin(), dist.end(), -1);
    dist[rep] = 0;
    std::vector<NodeId> queue{rep};
    for (size_t head = 0; head < queue.size(); ++head) {
      for (NodeId v : adj[queue[head]]) {
        if (dist[v] >= 0) continue;
        dist[v] = dist[queue[head]] + 1;
        queue.push_back(v);
      }
    }
    for (NodeId j = 0; j < n; ++j) {
      if (!view.alive[j]) continue;
      if (j != rep && view.representative[j] != rep) continue;
      ++stats.size;
      stats.radius = std::max(
          stats.radius, Distance(links.position(rep), links.position(j)));
      if (stats.depth >= 0) {
        stats.depth = dist[j] < 0 ? -1 : std::max(stats.depth, dist[j]);
      }
    }
    snap.clusters.push_back(stats);
  }
  return snap;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectBitwiseEqual(const obs::TopologySnapshot& got,
                        const obs::TopologySnapshot& want) {
  EXPECT_EQ(got.t, want.t);
  EXPECT_EQ(got.num_nodes, want.num_nodes);
  EXPECT_EQ(got.num_live, want.num_live);
  EXPECT_EQ(got.partitions, want.partitions);
  EXPECT_EQ(got.isolated, want.isolated);
  EXPECT_EQ(Bits(got.avg_degree), Bits(want.avg_degree));
  EXPECT_EQ(got.max_degree, want.max_degree);
  EXPECT_EQ(got.weak_links, want.weak_links);
  EXPECT_EQ(got.degree, want.degree);
  EXPECT_EQ(got.component, want.component);
  EXPECT_EQ(got.representative, want.representative);
  EXPECT_EQ(got.alive, want.alive);
  EXPECT_EQ(got.bridges, want.bridges);
  EXPECT_EQ(got.articulation, want.articulation);
  ASSERT_EQ(got.clusters.size(), want.clusters.size());
  for (size_t c = 0; c < got.clusters.size(); ++c) {
    SCOPED_TRACE("cluster of rep " + std::to_string(want.clusters[c].rep));
    EXPECT_EQ(got.clusters[c].rep, want.clusters[c].rep);
    EXPECT_EQ(got.clusters[c].size, want.clusters[c].size);
    EXPECT_EQ(Bits(got.clusters[c].radius), Bits(want.clusters[c].radius));
    EXPECT_EQ(got.clusters[c].depth, want.clusters[c].depth);
  }
}

TEST(AnalyzeTopologyTest, MatchesBruteForceReferenceOnRandomDeployments) {
  constexpr int kDeployments = 300;
  size_t clusters = 0, broken = 0, deep = 0, invalid_reps = 0,
         reps_pointing_elsewhere = 0, dead = 0;
  for (int seed = 1; seed <= kDeployments; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(static_cast<uint64_t>(seed));
    const size_t n = static_cast<size_t>(rng.UniformInt(2, 80));
    std::vector<Point> positions(n);
    std::vector<double> ranges(n);  // per-node: asymmetric links
    for (size_t i = 0; i < n; ++i) {
      positions[i] = {rng.NextDouble(), rng.NextDouble()};
      ranges[i] = rng.UniformDouble(0.05, 0.3);
    }
    const LinkModel links(positions, ranges, 0.0);

    obs::ClusterView view = LiveView(n);
    std::vector<NodeId> reps;
    for (NodeId i = 0; i < n; ++i) {
      view.alive[i] = rng.Bernoulli(0.9) ? 1 : 0;
      view.is_rep[i] = rng.Bernoulli(0.3) ? 1 : 0;  // dead reps too
      if (view.is_rep[i]) reps.push_back(i);
    }
    const auto random_node = [&] {
      return static_cast<NodeId>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    };
    for (NodeId i = 0; i < n; ++i) {
      if (!view.alive[i]) ++dead;
      std::vector<NodeId> near;  // reps i hears or that hear i
      for (NodeId r : reps) {
        if (r != i && (links.CanReach(r, i) || links.CanReach(i, r))) {
          near.push_back(r);
        }
      }
      const double pick = rng.NextDouble();
      if (view.is_rep[i] && pick < 0.75) {
        view.representative[i] = i;
      } else if (pick < 0.15) {
        view.representative[i] = i;
      } else if (pick < 0.55 && !near.empty()) {
        view.representative[i] = near[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(near.size()) - 1))];
      } else if (pick < 0.65 && !reps.empty()) {
        // Any rep at all: often out of range, two hops away or unreachable.
        view.representative[i] = reps[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(reps.size()) - 1))];
      } else if (pick < 0.8) {
        view.representative[i] = random_node();
      } else if (pick < 0.9) {
        view.representative[i] = kInvalidNode;
      } else {
        view.representative[i] = i;
      }
      if (view.representative[i] == kInvalidNode) ++invalid_reps;
      if (view.is_rep[i] && view.representative[i] != i) {
        ++reps_pointing_elsewhere;
      }
    }

    const obs::TopologySnapshot got = obs::AnalyzeTopology(links, view, seed);
    ExpectBitwiseEqual(got, ReferenceTopology(links, view, seed));
    for (const obs::ClusterTopoStats& c : got.clusters) {
      ++clusters;
      if (c.depth < 0) ++broken;
      if (c.depth >= 2) ++deep;
    }
    if (HasFailure()) break;
  }
  // The generator reaches every case the early-stopping BFS must handle.
  EXPECT_GT(clusters, 1000u);
  EXPECT_GT(broken, 100u);
  EXPECT_GT(deep, 50u);
  EXPECT_GT(invalid_reps, 100u);
  EXPECT_GT(reps_pointing_elsewhere, 100u);
  EXPECT_GT(dead, 100u);
}

// ---------------------------------------------------------------------------
// ChurnTracker

TEST(ChurnTrackerTest, FirstSweepCountsElectionsButNotFlaps) {
  obs::MetricRegistry registry;
  obs::ChurnTracker churn(3, /*grid=*/1, &registry);
  const LinkModel links =
      MakeLinks({{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}}, 5.0);
  obs::ClusterView view = LiveView(3);
  view.is_rep[0] = 1;
  view.representative[1] = 0;
  view.representative[2] = 0;
  churn.Observe(view, links, 10);
  EXPECT_EQ(churn.elections_total(), 1u);
  EXPECT_EQ(churn.flaps_total(), 0u);  // no previous sweep to differ from
  EXPECT_DOUBLE_EQ(churn.election_rate(), 1.0);
  EXPECT_EQ(registry.GetCounter("churn.elections")->value(), 1u);

  // Steady state: same view again, nothing moves.
  churn.Observe(view, links, 20);
  EXPECT_EQ(churn.elections_total(), 1u);
  EXPECT_EQ(churn.flaps_total(), 0u);
  EXPECT_DOUBLE_EQ(churn.election_rate(), 0.0);
}

TEST(ChurnTrackerTest, FlapAndTenureOnRepresentativeChange) {
  obs::MetricRegistry registry;
  obs::ChurnTracker churn(3, 1, &registry);
  const LinkModel links =
      MakeLinks({{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}}, 5.0);
  obs::ClusterView view = LiveView(3);
  view.is_rep[0] = 1;
  view.representative[1] = 0;
  view.representative[2] = 0;
  churn.Observe(view, links, 0);
  // Ongoing tenure stands in for the p50 while nothing completed.
  churn.Observe(view, links, 40);
  EXPECT_DOUBLE_EQ(churn.tenure_p50(), 40.0);

  // Node 2 takes over: node 0 resigns, members repoint.
  view.is_rep[0] = 0;
  view.is_rep[2] = 1;
  view.representative[0] = 2;
  view.representative[1] = 2;
  view.representative[2] = 2;
  churn.Observe(view, links, 100);
  // All three nodes changed representative (0 -> 2).
  EXPECT_EQ(churn.flaps_total(), 3u);
  EXPECT_DOUBLE_EQ(churn.flap_rate(), 3.0);
  EXPECT_EQ(churn.elections_total(), 2u);
  EXPECT_EQ(churn.completed_tenures(), 1u);
  // Node 0 held the role for the full 100 ticks; the p50 now comes from
  // the completed-tenure histogram (log-bucketed, so approximate).
  EXPECT_GT(churn.tenure_p50(), 50.0);
  EXPECT_EQ(registry.GetCounter("churn.tenures_completed")->value(), 1u);
}

TEST(ChurnTrackerTest, DeadNodesNeitherFlapNorComplete) {
  obs::MetricRegistry registry;
  obs::ChurnTracker churn(2, 1, &registry);
  const LinkModel links = MakeLinks({{0.0, 0.0}, {1.0, 0.0}}, 5.0);
  obs::ClusterView view = LiveView(2);
  view.is_rep[0] = 1;
  view.representative[1] = 0;
  churn.Observe(view, links, 0);
  view.alive[1] = 0;
  view.representative[1] = 1;  // stale self-pointer on a dead node
  churn.Observe(view, links, 10);
  EXPECT_EQ(churn.flaps_total(), 0u);

  // The rep dying completes its tenure.
  view.alive[0] = 0;
  view.is_rep[0] = 0;
  churn.Observe(view, links, 20);
  EXPECT_EQ(churn.completed_tenures(), 1u);
}

TEST(ChurnTrackerTest, RegionElectionsBucketByPosition) {
  obs::MetricRegistry registry;
  obs::ChurnTracker churn(4, /*grid=*/2, &registry);
  // One node per quadrant of the unit square.
  const LinkModel links = MakeLinks(
      {{0.1, 0.1}, {0.9, 0.1}, {0.1, 0.9}, {0.9, 0.9}}, 5.0);
  obs::ClusterView view = LiveView(4);
  view.is_rep[0] = 1;  // bottom-left cell 0
  view.is_rep[3] = 1;  // top-right cell 3
  churn.Observe(view, links, 0);
  EXPECT_EQ(churn.RegionElections(0), 1u);
  EXPECT_EQ(churn.RegionElections(1), 0u);
  EXPECT_EQ(churn.RegionElections(2), 0u);
  EXPECT_EQ(churn.RegionElections(3), 1u);
  EXPECT_EQ(
      registry.GetCounter("churn.region_elections", /*node=*/0)->value(), 1u);
}

// ---------------------------------------------------------------------------
// TopologyMonitor

TEST(TopologyMonitorTest, SamplePublishesGaugesAndJournalEvent) {
  obs::MetricRegistry registry;
  obs::EventJournal journal;
  auto* sink = static_cast<obs::MemoryJournalSink*>(
      journal.SetSink(std::make_unique<obs::MemoryJournalSink>()));
  const LinkModel links =
      MakeLinks({{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}}, 1.1);
  obs::TopologyMonitor monitor(obs::TopologyConfig{}, links, &registry,
                               &journal);
  obs::ClusterView& view = monitor.mutable_view();
  view.is_rep[1] = 1;
  view.representative[0] = 1;
  view.representative[2] = 1;

  // Feed the observer one weak link (>= 8 addressed outcomes, all lost).
  for (int i = 0; i < 10; ++i) {
    monitor.link_observer().Record(0, 1, RadioEventKind::kLoss, i);
  }
  const obs::TopologySnapshot& snap = monitor.Sample(links, 50);
  EXPECT_EQ(snap.partitions, 1u);
  EXPECT_EQ(snap.weak_links, 1u);
  EXPECT_EQ(monitor.num_samples(), 1u);

  EXPECT_DOUBLE_EQ(registry.GetGauge("topo.partitions")->value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("topo.bridges")->value(), 2.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("topo.articulation_nodes")->value(),
                   1.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("topo.isolated_nodes")->value(), 0.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("topo.weak_links")->value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("topo.live_nodes")->value(), 3.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("topo.links_observed")->value(), 1.0);
  EXPECT_DOUBLE_EQ(registry.GetGauge("churn.election_rate")->value(), 1.0);
  EXPECT_EQ(registry.GetCounter("topo.samples")->value(), 1u);

  ASSERT_EQ(sink->lines().size(), 1u);
  EXPECT_NE(sink->lines()[0].find("\"event\":\"topo.sample\""),
            std::string::npos);
  EXPECT_NE(sink->lines()[0].find("\"partitions\":1"), std::string::npos);

  const std::string text = monitor.ToString();
  EXPECT_NE(text.find("partitions    1"), std::string::npos);
  EXPECT_NE(text.find("weakest links"), std::string::npos);
}

TEST(TopologyMonitorTest, ToStringBeforeFirstSample) {
  obs::MetricRegistry registry;
  obs::TopologyMonitor monitor(obs::TopologyConfig{},
                               MakeLinks({{0.0, 0.0}, {1.0, 0.0}}, 1.1),
                               &registry);
  EXPECT_NE(monitor.ToString().find("no samples"), std::string::npos);
}

}  // namespace
}  // namespace snapq
