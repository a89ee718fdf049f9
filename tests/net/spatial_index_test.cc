#include "net/spatial_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/geometry.h"
#include "common/rng.h"

namespace snapq {
namespace {

std::vector<NodeId> Candidates(const SpatialIndex& index, const Point& center,
                               double radius) {
  std::vector<NodeId> out;
  index.ForEachCandidate(center, radius,
                         [&](NodeId id) { out.push_back(id); });
  return out;
}

TEST(SpatialIndexTest, EmptyIndex) {
  const SpatialIndex index;
  EXPECT_EQ(index.num_nodes(), 0u);
  EXPECT_TRUE(Candidates(index, {0.5, 0.5}, 1.0).empty());
  EXPECT_TRUE(index.CellOf({0.5, 0.5}).empty());
}

TEST(SpatialIndexTest, CandidatesCoverEveryNodeInRadius) {
  Rng rng(7);
  std::vector<Point> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.NextDouble(), rng.NextDouble()});
  }
  const double edge = 0.2;
  const SpatialIndex index(pts, edge);
  for (int probe = 0; probe < 50; ++probe) {
    const Point c{rng.NextDouble(), rng.NextDouble()};
    const double radius = rng.UniformDouble(0.0, edge);
    const std::vector<NodeId> cand = Candidates(index, c, radius);
    for (NodeId i = 0; i < pts.size(); ++i) {
      if (DistanceSquared(pts[i], c) <= radius * radius) {
        EXPECT_NE(std::find(cand.begin(), cand.end(), i), cand.end())
            << "node " << i << " within radius but not a candidate";
      }
    }
  }
}

TEST(SpatialIndexTest, CandidateStreamIsPlacementDeterministic) {
  // The candidate order must be a pure function of the positions: an index
  // that arrived at the same placement through churn yields the same
  // stream as one built fresh.
  Rng rng(11);
  std::vector<Point> start, end;
  for (int i = 0; i < 60; ++i) {
    start.push_back({rng.UniformDouble(-1, 1), rng.UniformDouble(-1, 1)});
    end.push_back({rng.UniformDouble(-1, 1), rng.UniformDouble(-1, 1)});
  }
  SpatialIndex churned(start, 0.25);
  for (NodeId i = 0; i < start.size(); ++i) {
    churned.Move(i, start[i], end[i]);
  }
  const SpatialIndex fresh(end, 0.25);
  for (int probe = 0; probe < 30; ++probe) {
    const Point c{rng.UniformDouble(-1, 1), rng.UniformDouble(-1, 1)};
    const double radius = rng.UniformDouble(0.0, 0.25);
    EXPECT_EQ(Candidates(churned, c, radius), Candidates(fresh, c, radius));
  }
}

TEST(SpatialIndexTest, BucketsKeepAscendingIdOrder) {
  // All nodes share one cell; the bucket (and thus the candidate stream)
  // must come out id-sorted regardless of churn.
  std::vector<Point> pts(10, Point{0.5, 0.5});
  SpatialIndex index(pts, 1.0);
  const std::vector<NodeId> ids = Candidates(index, {0.5, 0.5}, 0.0);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(ids.size(), 10u);
  // Bounce node 3 out and back in; order must be restored, not appended.
  index.Move(3, {0.5, 0.5}, {10.0, 10.0});
  index.Move(3, {10.0, 10.0}, {0.5, 0.5});
  EXPECT_EQ(Candidates(index, {0.5, 0.5}, 0.0), ids);
}

TEST(SpatialIndexTest, MoveWithinCellIsANoOp) {
  std::vector<Point> pts = {{0.1, 0.1}, {0.2, 0.2}};
  SpatialIndex index(pts, 1.0);
  index.Move(0, {0.1, 0.1}, {0.3, 0.3});  // same unit cell
  EXPECT_EQ(Candidates(index, {0.2, 0.2}, 0.5).size(), 2u);
  EXPECT_EQ(index.num_cells(), 1u);
}

TEST(SpatialIndexTest, MoveAcrossCellsMigrates) {
  std::vector<Point> pts = {{0.5, 0.5}, {2.5, 0.5}};
  SpatialIndex index(pts, 1.0);
  EXPECT_EQ(Candidates(index, {0.5, 0.5}, 0.4), std::vector<NodeId>{0});
  index.Move(0, {0.5, 0.5}, {2.4, 0.5});
  EXPECT_TRUE(Candidates(index, {0.5, 0.5}, 0.4).empty());
  const std::vector<NodeId> far = Candidates(index, {2.5, 0.5}, 0.4);
  EXPECT_EQ(far, (std::vector<NodeId>{0, 1}));
}

TEST(SpatialIndexTest, TableGrowthPreservesCells) {
  // Far more distinct cells than the initial table capacity forces several
  // rehashes mid-construction.
  std::vector<Point> pts;
  for (int i = 0; i < 500; ++i) {
    pts.push_back({static_cast<double>(i) * 3.0, 0.0});
  }
  const SpatialIndex index(pts, 1.0);
  EXPECT_EQ(index.num_cells(), 500u);
  for (NodeId i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(Candidates(index, pts[i], 0.5), std::vector<NodeId>{i});
  }
}

TEST(SpatialIndexTest, FarAwayCoordinatesClampWithoutOverflow) {
  std::vector<Point> pts = {{0.0, 0.0}, {1e18, 1e18}, {-1e18, -1e18}};
  const SpatialIndex index(pts, 0.5);
  // The clamped far nodes are in some boundary cell; the near query must
  // not see them, and a query at their own position must.
  EXPECT_EQ(Candidates(index, {0.0, 0.0}, 0.5), std::vector<NodeId>{0});
  const std::vector<NodeId> far = Candidates(index, {1e18, 1e18}, 0.5);
  EXPECT_NE(std::find(far.begin(), far.end(), 1u), far.end());
}

/// The nodes `rect` contains, found through the grid, ascending.
std::vector<NodeId> InRect(const SpatialIndex& index,
                           const std::vector<Point>& pts, const Rect& rect) {
  std::vector<NodeId> out;
  index.ForEachCandidateInRect(rect, [&](NodeId id) {
    if (rect.Contains(pts[id])) out.push_back(id);
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> BruteInRect(const std::vector<Point>& pts,
                                const Rect& rect) {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < pts.size(); ++i) {
    if (rect.Contains(pts[i])) out.push_back(i);
  }
  return out;
}

TEST(SpatialIndexTest, RectQueryAgreesWithRectContains) {
  Rng rng(11);
  std::vector<Point> pts;
  for (int i = 0; i < 400; ++i) {
    pts.push_back({rng.UniformDouble(0.0, 1.0), rng.UniformDouble(0.0, 1.0)});
  }
  // Nodes exactly on cell edges and on the query bounds below.
  pts.push_back({0.25, 0.5});
  pts.push_back({0.5, 0.25});
  pts.push_back({0.75, 0.75});
  const SpatialIndex index(pts, 0.05);
  for (int trial = 0; trial < 200; ++trial) {
    const double x = rng.UniformDouble(-0.1, 1.0);
    const double y = rng.UniformDouble(-0.1, 1.0);
    const Rect rect{x, y, x + rng.UniformDouble(0.0, 0.6),
                    y + rng.UniformDouble(0.0, 0.6)};
    EXPECT_EQ(InRect(index, pts, rect), BruteInRect(pts, rect))
        << "trial " << trial;
  }
  // Closed bounds: a node on any edge of the rectangle is inside it.
  for (const Rect& rect : {Rect{0.25, 0.5, 0.3, 0.6}, Rect{0.2, 0.5, 0.25, 0.6},
                           Rect{0.5, 0.25, 0.6, 0.3}, Rect{0.4, 0.2, 0.5, 0.25},
                           Rect{0.75, 0.75, 0.75, 0.75}}) {
    const std::vector<NodeId> found = InRect(index, pts, rect);
    EXPECT_EQ(found, BruteInRect(pts, rect));
    EXPECT_FALSE(found.empty());
  }
  // Inverted and NaN bounds contain nothing.
  EXPECT_TRUE(InRect(index, pts, Rect{0.6, 0.0, 0.4, 1.0}).empty());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(InRect(index, pts, Rect{nan, 0.0, 1.0, 1.0}).empty());
}

TEST(SpatialIndexTest, RectQueryFindsAMovedNodeInItsNewCell) {
  std::vector<Point> pts = {{0.5, 0.5}, {2.5, 0.5}, {0.5, 2.5}};
  SpatialIndex index(pts, 1.0);
  const Rect old_cell{0.0, 0.0, 0.99, 0.99};
  const Rect new_cell{2.0, 2.0, 2.99, 2.99};
  EXPECT_EQ(InRect(index, pts, old_cell), std::vector<NodeId>{0});
  index.Move(0, pts[0], {2.5, 2.5});
  pts[0] = {2.5, 2.5};
  EXPECT_TRUE(InRect(index, pts, old_cell).empty());
  EXPECT_EQ(InRect(index, pts, new_cell), std::vector<NodeId>{0});
  // The candidate stream itself left the old cell, not just the filter.
  size_t old_candidates = 0;
  index.ForEachCandidateInRect(old_cell, [&](NodeId) { ++old_candidates; });
  EXPECT_EQ(old_candidates, 0u);
}

TEST(SpatialIndexTest, HugeRectScansOccupiedCellsOnly) {
  // EVERYWHERE's +/-1e300 clamps to ~2^31 cells a side: iterating them
  // would never finish, so the query falls back to the occupied cells —
  // each node once, far-away clamped nodes included.
  std::vector<Point> pts = {{0.0, 0.0}, {1e18, 1e18}, {-1e18, -1e18},
                            {0.5, 0.5}, {0.51, 0.5}};
  const SpatialIndex index(pts, 0.1);
  for (const Rect& rect : {Rect{-1e300, -1e300, 1e300, 1e300},
                           Rect{-1e9, -1e9, 1e9, 1e9},
                           Rect{-1e20, -1e20, 1e20, 1e20}}) {
    std::vector<NodeId> seen;
    index.ForEachCandidateInRect(rect, [&](NodeId id) { seen.push_back(id); });
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, (std::vector<NodeId>{0, 1, 2, 3, 4}));
    EXPECT_EQ(InRect(index, pts, rect), BruteInRect(pts, rect));
  }
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(InRect(index, pts, Rect{-inf, -inf, inf, inf}).size(), 5u);
}

}  // namespace
}  // namespace snapq
