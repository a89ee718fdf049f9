#include "net/link_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace snapq {
namespace {

LinkModel Line3(double range, double loss = 0.0) {
  // Nodes at x = 0, 1, 2 on a line.
  return LinkModel({{0, 0}, {1, 0}, {2, 0}},
                   {range, range, range}, loss);
}

TEST(LinkModelTest, ReachabilityByRange) {
  const LinkModel lm = Line3(1.0);
  EXPECT_TRUE(lm.CanReach(0, 1));
  EXPECT_FALSE(lm.CanReach(0, 2));
  EXPECT_TRUE(lm.CanReach(1, 0));
  EXPECT_TRUE(lm.CanReach(1, 2));
}

TEST(LinkModelTest, RangeBoundaryIsInclusive) {
  const LinkModel lm = Line3(1.0);
  EXPECT_TRUE(lm.CanReach(0, 1));  // distance exactly 1.0
}

TEST(LinkModelTest, SelfIsNotReachable) {
  const LinkModel lm = Line3(10.0);
  EXPECT_FALSE(lm.CanReach(1, 1));
  for (NodeId j : lm.Reachable(1)) {
    EXPECT_NE(j, 1u);
  }
}

TEST(LinkModelTest, AsymmetricRanges) {
  // Node 0 shouts far, node 1 whispers.
  const LinkModel lm({{0, 0}, {5, 0}}, {10.0, 1.0}, 0.0);
  EXPECT_TRUE(lm.CanReach(0, 1));
  EXPECT_FALSE(lm.CanReach(1, 0));
  EXPECT_EQ(lm.Reachable(0).size(), 1u);
  EXPECT_TRUE(lm.Reachable(1).empty());
}

TEST(LinkModelTest, ReachableListsMatchCanReach) {
  const LinkModel lm = Line3(1.5);
  for (NodeId i = 0; i < 3; ++i) {
    size_t count = 0;
    for (NodeId j = 0; j < 3; ++j) {
      if (lm.CanReach(i, j)) ++count;
    }
    EXPECT_EQ(lm.Reachable(i).size(), count);
  }
}

TEST(LinkModelTest, ZeroLossNeverDrops) {
  const LinkModel lm = Line3(1.0, 0.0);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(lm.SampleLoss(0, 1, rng));
  }
}

TEST(LinkModelTest, FullLossAlwaysDrops) {
  const LinkModel lm = Line3(1.0, 1.0);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(lm.SampleLoss(0, 1, rng));
  }
}

TEST(LinkModelTest, LossFrequencyMatchesProbability) {
  const LinkModel lm = Line3(1.0, 0.3);
  Rng rng(3);
  int losses = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    losses += lm.SampleLoss(0, 1, rng) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(losses) / n, 0.3, 0.01);
}

TEST(LinkModelTest, PerLinkOverrideModelsObstacle) {
  LinkModel lm = Line3(2.0, 0.0);
  lm.SetLinkLoss(0, 1, 1.0);  // obstacle 0 -> 1 only
  Rng rng(4);
  EXPECT_TRUE(lm.SampleLoss(0, 1, rng));
  EXPECT_FALSE(lm.SampleLoss(1, 0, rng));
  EXPECT_FALSE(lm.SampleLoss(0, 2, rng));
}

TEST(LinkModelTest, ConnectivityDetection) {
  EXPECT_TRUE(Line3(1.0).IsConnected());
  EXPECT_FALSE(Line3(0.5).IsConnected());
}

TEST(LinkModelTest, ConnectedThroughAsymmetricLink) {
  // Undirected closure: one working direction connects the graph.
  const LinkModel lm({{0, 0}, {5, 0}}, {10.0, 1.0}, 0.0);
  EXPECT_TRUE(lm.IsConnected());
}

TEST(LinkModelTest, SqrtTwoRangeCoversUnitSquare) {
  // The paper's default: range sqrt(2) lets every node hear everyone in
  // the unit square.
  Rng rng(5);
  std::vector<Point> pts;
  std::vector<double> ranges;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({rng.NextDouble(), rng.NextDouble()});
    ranges.push_back(std::sqrt(2.0));
  }
  const LinkModel lm(std::move(pts), std::move(ranges), 0.0);
  for (NodeId i = 0; i < 30; ++i) {
    EXPECT_EQ(lm.Reachable(i).size(), 29u);
  }
}

TEST(LinkModelTest, SetPositionRecomputesReachabilityBothDirections) {
  // Asymmetric ranges: after the whisperer moves next to the shouter,
  // both directions must reflect the new distance, and moving it far
  // away must sever both.
  LinkModel lm({{0, 0}, {5, 0}}, {10.0, 1.0}, 0.0);
  ASSERT_TRUE(lm.CanReach(0, 1));
  ASSERT_FALSE(lm.CanReach(1, 0));

  lm.SetPosition(1, {0.5, 0});
  EXPECT_TRUE(lm.CanReach(0, 1));
  EXPECT_TRUE(lm.CanReach(1, 0));  // now within the whisperer's range
  EXPECT_EQ(lm.Reachable(1).size(), 1u);

  lm.SetPosition(1, {20, 0});
  EXPECT_FALSE(lm.CanReach(0, 1));
  EXPECT_FALSE(lm.CanReach(1, 0));
  EXPECT_TRUE(lm.Reachable(1).empty());
  EXPECT_FALSE(lm.IsConnected());
}

TEST(LinkModelTest, SetPositionOfAThirdNodeLeavesOtherLinksAlone) {
  LinkModel lm = Line3(1.0);
  lm.SetPosition(2, {1, 1});  // 2 moves closer to 1, still out of 0's range
  EXPECT_TRUE(lm.CanReach(0, 1));
  EXPECT_TRUE(lm.CanReach(1, 2));
  EXPECT_FALSE(lm.CanReach(0, 2));
  EXPECT_EQ(lm.position(2).x, 1.0);
  EXPECT_EQ(lm.position(2).y, 1.0);
}

TEST(LinkModelTest, PerLinkLossOverridesSurviveMoves) {
  LinkModel lm = Line3(2.0, 0.0);
  lm.SetLinkLoss(0, 1, 1.0);
  lm.SetPosition(1, {0.5, 0});  // the obstacle moves with the link
  Rng rng(6);
  EXPECT_TRUE(lm.SampleLoss(0, 1, rng));
  EXPECT_FALSE(lm.SampleLoss(1, 0, rng));
}

TEST(LinkModelTest, VersionBumpsOnEveryMoveAndOnNothingElse) {
  LinkModel lm = Line3(1.0);
  const uint64_t built = lm.version();
  lm.SetLinkLoss(0, 1, 0.5);  // loss is not reachability
  EXPECT_EQ(lm.version(), built);
  Rng rng(7);
  (void)lm.SampleLoss(0, 1, rng);
  (void)lm.IsConnected();
  EXPECT_EQ(lm.version(), built);

  // A move that changes no adjacency row still bumps: the version tracks
  // the geometry, not a diff of it.
  lm.SetPosition(1, {1, 0});
  EXPECT_EQ(lm.version(), built + 1);
  lm.SetPosition(2, {1, 1});
  EXPECT_EQ(lm.version(), built + 2);
}

TEST(LinkModelTest, OverlayCompactionDoesNotBumpTheVersion) {
  // 70 nodes on a line; moving 65 of them in place overflows the overlay
  // (threshold max(64, n/4)), so one of the moves compacts. Every move is
  // still exactly one bump.
  std::vector<Point> pts;
  for (int i = 0; i < 70; ++i) pts.push_back({0.01 * i, 0});
  LinkModel lm(pts, std::vector<double>(70, 0.05), 0.0);
  bool compacted = false;
  for (NodeId i = 0; i < 65; ++i) {
    const uint64_t before = lm.version();
    const size_t overlay_before = lm.overlay_rows();
    lm.SetPosition(i, pts[i]);
    if (lm.overlay_rows() < overlay_before) compacted = true;
    EXPECT_EQ(lm.version(), before + 1) << "move " << i;
  }
  EXPECT_TRUE(compacted);
}

TEST(LinkModelTest, VersionNeverRepeatsAcrossModels) {
  // A model assigned over another must not inherit a version a cache may
  // already hold for the old geometry; a copy shares its source's.
  LinkModel lm = Line3(1.0);
  const uint64_t old_version = lm.version();
  const LinkModel copy = lm;
  EXPECT_EQ(copy.version(), old_version);
  lm = Line3(2.0);
  EXPECT_NE(lm.version(), old_version);
}

TEST(LinkModelTest, SingleNodeNetwork) {
  const LinkModel lm({{0.5, 0.5}}, {1.0}, 0.0);
  EXPECT_TRUE(lm.Reachable(0).empty());
  EXPECT_TRUE(lm.IsConnected());
}

}  // namespace
}  // namespace snapq
