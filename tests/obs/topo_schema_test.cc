// Golden test freezing the `.topo.json` schema. The document is consumed
// by tools/topo_report.py (including the CI tools-check gate), so a
// change here is a cross-tool schema change: update kTopoMapSchemaVersion,
// the golden below, and topo_report.py together.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/geometry.h"
#include "net/link_model.h"
#include "obs/json.h"
#include "obs/topo.h"

namespace snapq::obs {
namespace {

/// A tiny deterministic scenario exercising every section of the
/// document: a 3-node path (two bridges, one articulation node), one
/// cluster around the middle node, and three observed links covering the
/// delivered / lost / snooped-only EWMA states.
struct GoldenScenario {
  TopologySnapshot snap;
  std::vector<Point> positions;
  std::vector<LinkStats> links;
};

GoldenScenario BuildGolden() {
  GoldenScenario g;
  g.positions = {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}};
  const LinkModel links(g.positions, {1.1, 1.1, 1.1}, 0.0);
  ClusterView view;
  view.Resize(3);
  view.is_rep[1] = 1;
  view.representative[0] = 1;
  view.representative[2] = 1;

  LinkObserver observer(3);
  observer.Record(1, 0, RadioEventKind::kDeliver, 5);  // ewma 1
  observer.Record(1, 2, RadioEventKind::kLoss, 6);     // ewma 0
  // Never addressed: ewma stays -1.
  observer.Record(0, 2, RadioEventKind::kSnoop, 8);

  g.snap = AnalyzeTopology(links, view, 9);
  g.snap.weak_links = 1;  // what the monitor would fill from the observer
  g.links = observer.SortedLinks();
  return g;
}

std::string GoldenJson() {
  const GoldenScenario g = BuildGolden();
  TopoMapMeta meta;
  meta.benchmark = "golden";
  meta.git_sha = "deadbeef";
  meta.quick = true;
  meta.t = 9;
  meta.extras = {{"alpha", 0.5}};
  return TopoMapToJson(g.snap, g.positions, g.links, meta);
}

constexpr char kGolden[] = R"({
  "schema_version": 1,
  "kind": "snapq-topo",
  "benchmark": "golden",
  "git_sha": "deadbeef",
  "quick": true,
  "t": 9,
  "num_nodes": 3,
  "live": 3,
  "summary": {"partitions": 1, "bridges": 2, "articulation_nodes": 1, "isolated": 0, "avg_degree": 1.33333333333, "max_degree": 2, "weak_links": 1, "links_observed": 3},
  "clusters": [{"rep": 1, "size": 3, "radius": 1, "depth": 1}],
  "bridges": [[0, 1], [1, 2]],
  "articulation": [1],
  "extras": {"alpha": 0.5},
  "nodes": [
    {"id": 0, "x": 0, "y": 0, "alive": true, "degree": 1, "component": 0, "rep": 1},
    {"id": 1, "x": 1, "y": 0, "alive": true, "degree": 2, "component": 0, "rep": 1},
    {"id": 2, "x": 2, "y": 0, "alive": true, "degree": 1, "component": 0, "rep": 1}
  ],
  "links": [
    {"from": 0, "to": 2, "deliveries": 0, "snoops": 1, "losses": 0, "ewma": -1, "last": 8},
    {"from": 1, "to": 0, "deliveries": 1, "snoops": 0, "losses": 0, "ewma": 1, "last": 5},
    {"from": 1, "to": 2, "deliveries": 0, "snoops": 0, "losses": 1, "ewma": 0, "last": 6}
  ]
}
)";

TEST(TopoSchemaTest, GoldenDocumentIsFrozen) {
  EXPECT_EQ(GoldenJson(), kGolden);
}

TEST(TopoSchemaTest, GoldenDocumentIsValidJson) {
  EXPECT_TRUE(ValidateJson(GoldenJson()));
}

TEST(TopoSchemaTest, DeadAndPartitionedNodesRenderFiniteValues) {
  // One dead node and two separated survivors: components -1/0/1, no
  // infinities or nulls anywhere in the document.
  std::vector<Point> positions = {{0.0, 0.0}, {1.0, 0.0}, {9.0, 0.0}};
  const LinkModel links(positions, {1.1, 1.1, 1.1}, 0.0);
  ClusterView view;
  view.Resize(3);
  view.alive[1] = 0;
  const TopologySnapshot snap = AnalyzeTopology(links, view, 3);
  TopoMapMeta meta;
  meta.benchmark = "partitioned";
  const std::string json = TopoMapToJson(snap, positions, {}, meta);
  EXPECT_TRUE(ValidateJson(json));
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("null"), std::string::npos);
  EXPECT_NE(json.find("\"partitions\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"alive\": false"), std::string::npos);
  EXPECT_NE(json.find("\"component\": -1"), std::string::npos);
}

}  // namespace
}  // namespace snapq::obs
