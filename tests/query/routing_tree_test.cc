#include "query/routing_tree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "net/topology.h"

namespace snapq {
namespace {

/// `id`'s path up to and including the sink, walked through parent();
/// empty when unreachable.
std::vector<NodeId> WalkToSink(const RoutingTree& tree, NodeId id) {
  std::vector<NodeId> path;
  if (!tree.IsReachable(id)) return path;
  for (NodeId v = id; v != kInvalidNode; v = tree.parent(v)) {
    path.push_back(v);
  }
  return path;
}

LinkModel Chain(size_t n, double range) {
  std::vector<Point> pts;
  std::vector<double> ranges;
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({static_cast<double>(i), 0.0});
    ranges.push_back(range);
  }
  return LinkModel(std::move(pts), std::move(ranges), 0.0);
}

TEST(RoutingTreeTest, ChainBuildsLinearTree) {
  const LinkModel links = Chain(5, 1.0);
  const RoutingTree tree =
      RoutingTree::Build(links, std::vector<bool>(5, true), 0);
  EXPECT_EQ(tree.depth(0), 0);
  EXPECT_EQ(tree.parent(0), kInvalidNode);
  for (NodeId i = 1; i < 5; ++i) {
    EXPECT_EQ(tree.parent(i), i - 1);
    EXPECT_EQ(tree.depth(i), static_cast<int>(i));
  }
}

TEST(RoutingTreeTest, ParentWalkEndsAtTheSink) {
  const LinkModel links = Chain(4, 1.0);
  const RoutingTree tree =
      RoutingTree::Build(links, std::vector<bool>(4, true), 0);
  EXPECT_EQ(WalkToSink(tree, 3), (std::vector<NodeId>{3, 2, 1, 0}));
  EXPECT_EQ(WalkToSink(tree, 0), (std::vector<NodeId>{0}));
}

TEST(RoutingTreeTest, DeadNodePartitionsChain) {
  const LinkModel links = Chain(5, 1.0);
  std::vector<bool> alive(5, true);
  alive[2] = false;
  const RoutingTree tree = RoutingTree::Build(links, alive, 0);
  EXPECT_TRUE(tree.IsReachable(1));
  EXPECT_FALSE(tree.IsReachable(2));
  EXPECT_FALSE(tree.IsReachable(3));
  EXPECT_FALSE(tree.IsReachable(4));
  EXPECT_EQ(tree.parent(4), kInvalidNode);
  EXPECT_TRUE(WalkToSink(tree, 4).empty());
}

TEST(RoutingTreeTest, DeadSinkReachesNothing) {
  const LinkModel links = Chain(3, 1.0);
  std::vector<bool> alive(3, true);
  alive[0] = false;
  const RoutingTree tree = RoutingTree::Build(links, alive, 0);
  for (NodeId i = 0; i < 3; ++i) {
    EXPECT_FALSE(tree.IsReachable(i));
  }
}

TEST(RoutingTreeTest, BfsGivesMinimumHops) {
  // Full mesh: everyone is depth 1 from the sink.
  const LinkModel links = Chain(6, 10.0);
  const RoutingTree tree =
      RoutingTree::Build(links, std::vector<bool>(6, true), 2);
  for (NodeId i = 0; i < 6; ++i) {
    EXPECT_EQ(tree.depth(i), i == 2 ? 0 : 1);
  }
}

TEST(RoutingTreeTest, AsymmetricLinksAreNotTreeEdges) {
  // Node 1 can hear node 0 but not vice versa: no usable tree edge.
  const LinkModel links({{0, 0}, {1, 0}}, {2.0, 0.5}, 0.0);
  const RoutingTree tree =
      RoutingTree::Build(links, std::vector<bool>(2, true), 0);
  EXPECT_FALSE(tree.IsReachable(1));
}

TEST(RoutingTreeTest, FavorBiasesParentChoice) {
  // Diamond: sink 0 at origin; 1 and 2 both at depth 1; 3 hears both.
  const LinkModel links({{0, 0}, {0, 1}, {1, 0}, {1, 1}},
                        {1.05, 1.05, 1.05, 1.05}, 0.0);
  const std::vector<bool> alive(4, true);
  // Unbiased: smallest id in the layer expands first -> parent(3) == 1.
  const RoutingTree plain = RoutingTree::Build(links, alive, 0);
  EXPECT_EQ(plain.parent(3), 1u);
  // Favor node 2 (e.g. it is a representative): it expands first.
  std::vector<bool> favor(4, false);
  favor[2] = true;
  const RoutingTree biased = RoutingTree::Build(links, alive, 0, &favor);
  EXPECT_EQ(biased.parent(3), 2u);
  EXPECT_EQ(biased.depth(3), 2);
}

TEST(RoutingTreeTest, EveryLiveConnectedNodeGetsAParent) {
  Rng rng(8);
  const auto pts = PlaceUniform(60, Rect::UnitSquare(), rng);
  const LinkModel links(pts, std::vector<double>(60, 0.35), 0.0);
  const RoutingTree tree =
      RoutingTree::Build(links, std::vector<bool>(60, true), 7);
  for (NodeId i = 0; i < 60; ++i) {
    if (!tree.IsReachable(i)) continue;
    const auto path = WalkToSink(tree, i);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), i);
    EXPECT_EQ(path.back(), 7u);
    // Depths strictly decrease along the path.
    for (size_t k = 1; k < path.size(); ++k) {
      EXPECT_EQ(tree.depth(path[k]), tree.depth(path[k - 1]) - 1);
    }
  }
}

TEST(RoutingTreeTest, DeterministicConstruction) {
  Rng rng(9);
  const auto pts = PlaceUniform(40, Rect::UnitSquare(), rng);
  const LinkModel links(pts, std::vector<double>(40, 0.4), 0.0);
  const RoutingTree a =
      RoutingTree::Build(links, std::vector<bool>(40, true), 0);
  const RoutingTree b =
      RoutingTree::Build(links, std::vector<bool>(40, true), 0);
  for (NodeId i = 0; i < 40; ++i) {
    EXPECT_EQ(a.parent(i), b.parent(i));
  }
}

}  // namespace
}  // namespace snapq
