// Randomized equivalence: the grid-built CSR adjacency must be
// element-for-element identical to the historical brute-force O(n^2)
// build — for any placement, any (possibly asymmetric) ranges, and after
// arbitrary SetPosition churn. This is the determinism gate behind the
// byte-identical-bench-output guarantee: the spatial index may change how
// neighbors are found, never which ones or in what order.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "net/link_model.h"

namespace snapq {
namespace {

std::vector<std::vector<NodeId>> BruteAdjacency(
    const std::vector<Point>& positions, const std::vector<double>& ranges) {
  const size_t n = positions.size();
  std::vector<std::vector<NodeId>> rows(n);
  for (NodeId i = 0; i < n; ++i) {
    const double r2 = ranges[i] * ranges[i];
    for (NodeId j = 0; j < n; ++j) {
      if (i != j && DistanceSquared(positions[i], positions[j]) <= r2) {
        rows[i].push_back(j);
      }
    }
  }
  return rows;
}

bool BruteConnected(const std::vector<std::vector<NodeId>>& rows) {
  const size_t n = rows.size();
  if (n == 0) return true;
  std::vector<std::vector<NodeId>> undirected(n);
  for (NodeId i = 0; i < n; ++i) {
    for (const NodeId j : rows[i]) {
      undirected[i].push_back(j);
      undirected[j].push_back(i);
    }
  }
  std::vector<bool> seen(n, false);
  std::queue<NodeId> frontier;
  frontier.push(0);
  seen[0] = true;
  size_t visited = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (const NodeId v : undirected[u]) {
      if (!seen[v]) {
        seen[v] = true;
        ++visited;
        frontier.push(v);
      }
    }
  }
  return visited == n;
}

void ExpectRowsEqual(const LinkModel& lm,
                     const std::vector<std::vector<NodeId>>& brute,
                     const char* context, int trial) {
  ASSERT_EQ(lm.num_nodes(), brute.size());
  for (NodeId i = 0; i < brute.size(); ++i) {
    const std::span<const NodeId> row = lm.Reachable(i);
    ASSERT_EQ(row.size(), brute[i].size())
        << context << " trial " << trial << " row " << i;
    for (size_t k = 0; k < row.size(); ++k) {
      ASSERT_EQ(row[k], brute[i][k])
          << context << " trial " << trial << " row " << i << " elem " << k;
    }
  }
}

TEST(LinkModelPropertyTest, GridAdjacencyMatchesBruteForce) {
  Rng rng(20260808);
  constexpr int kTrials = 500;
  for (int trial = 0; trial < kTrials; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 48));
    // Mix of deployment scales so cells are sometimes coarse (one cell
    // swallows the area, the historical all-pairs regime) and sometimes
    // fine (many nodes per query neighborhood).
    const double extent = rng.UniformDouble(0.1, 4.0);
    const bool uniform_range = rng.Bernoulli(0.5);
    const double base_range = rng.UniformDouble(0.01, 1.5 * extent);
    std::vector<Point> positions;
    std::vector<double> ranges;
    for (size_t i = 0; i < n; ++i) {
      positions.push_back({rng.UniformDouble(-extent, extent),
                           rng.UniformDouble(-extent, extent)});
      ranges.push_back(uniform_range ? base_range
                                     : rng.UniformDouble(0.0, base_range));
    }

    LinkModel lm(positions, ranges, 0.0);
    std::vector<std::vector<NodeId>> brute =
        BruteAdjacency(positions, ranges);
    ExpectRowsEqual(lm, brute, "build", trial);
    ASSERT_EQ(lm.IsConnected(), BruteConnected(brute)) << "trial " << trial;

    // SetPosition churn: every move must leave the model identical to a
    // brute-force rebuild at the new placement.
    const int moves = static_cast<int>(rng.UniformInt(1, 8));
    for (int m = 0; m < moves; ++m) {
      const NodeId id =
          static_cast<NodeId>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
      // Occasionally teleport far outside the deployment (cell migration
      // across many cells), otherwise drift locally.
      const Point target =
          rng.Bernoulli(0.2)
              ? Point{rng.UniformDouble(-10 * extent, 10 * extent),
                      rng.UniformDouble(-10 * extent, 10 * extent)}
              : Point{positions[id].x + rng.Gaussian(0.0, 0.3 * extent),
                      positions[id].y + rng.Gaussian(0.0, 0.3 * extent)};
      lm.SetPosition(id, target);
      positions[id] = target;
      brute = BruteAdjacency(positions, ranges);
      ExpectRowsEqual(lm, brute, "move", trial);
    }
    ASSERT_EQ(lm.IsConnected(), BruteConnected(brute)) << "trial " << trial;
  }
}

TEST(LinkModelPropertyTest, OverlayCompactionKeepsRowsIdentical) {
  // Enough churn to cross the compaction threshold (max(64, n/4) overlay
  // rows): the fold back into the flat CSR array must not change any row.
  Rng rng(99);
  const size_t n = 400;
  std::vector<Point> positions;
  std::vector<double> ranges;
  for (size_t i = 0; i < n; ++i) {
    positions.push_back({rng.NextDouble(), rng.NextDouble()});
    ranges.push_back(0.12);
  }
  LinkModel lm(positions, ranges, 0.0);
  bool compacted = false;
  for (int m = 0; m < 300; ++m) {
    const NodeId id =
        static_cast<NodeId>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    const Point target{rng.NextDouble(), rng.NextDouble()};
    const size_t overlay_before = lm.overlay_rows();
    lm.SetPosition(id, target);
    positions[id] = target;
    if (lm.overlay_rows() < overlay_before) compacted = true;
  }
  EXPECT_TRUE(compacted) << "churn never crossed the compaction threshold";
  ExpectRowsEqual(lm, BruteAdjacency(positions, ranges), "compaction", 0);
}

std::vector<std::vector<NodeId>> Rows(const LinkModel& lm) {
  std::vector<std::vector<NodeId>> rows;
  for (NodeId i = 0; i < lm.num_nodes(); ++i) {
    const std::span<const NodeId> row = lm.Reachable(i);
    rows.emplace_back(row.begin(), row.end());
  }
  return rows;
}

TEST(LinkModelPropertyTest, ChangeLogListsBothEndsOfEveryChangedLink) {
  // Asymmetric ranges, so a move can change a link one way only: the log
  // must still name both of its ends, for every version still covered.
  Rng rng(2024);
  const size_t n = 120;
  std::vector<Point> positions;
  std::vector<double> ranges;
  for (size_t i = 0; i < n; ++i) {
    positions.push_back({rng.UniformDouble(0, 1), rng.UniformDouble(0, 1)});
    ranges.push_back(rng.UniformDouble(0.08, 0.25));
  }
  LinkModel lm(positions, ranges, 0.0);
  std::vector<uint64_t> versions{lm.version()};
  std::vector<std::vector<std::vector<NodeId>>> snapshots{Rows(lm)};
  for (int step = 0; step < 40; ++step) {
    const NodeId v = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    const Point p = lm.position(v);
    lm.SetPosition(v, rng.Bernoulli(0.5)
                          ? Point{rng.UniformDouble(0, 1),
                                  rng.UniformDouble(0, 1)}
                          : Point{p.x + rng.UniformDouble(-0.05, 0.05),
                                  p.y + rng.UniformDouble(-0.05, 0.05)});
    versions.push_back(lm.version());
    snapshots.push_back(Rows(lm));
    const std::vector<std::vector<NodeId>> now = snapshots.back();
    for (size_t back = 0; back < versions.size(); ++back) {
      std::vector<NodeId> changed;
      ASSERT_TRUE(lm.ChangedSince(versions[back], &changed));
      std::vector<bool> listed(n, false);
      for (const NodeId c : changed) listed[c] = true;
      const std::vector<std::vector<NodeId>>& then = snapshots[back];
      for (NodeId a = 0; a < n; ++a) {
        for (NodeId b = 0; b < n; ++b) {
          const bool before =
              std::binary_search(then[a].begin(), then[a].end(), b);
          const bool after = std::binary_search(now[a].begin(), now[a].end(), b);
          if (before == after) continue;
          ASSERT_TRUE(listed[a] && listed[b])
              << "link " << a << "->" << b << " since version #" << back
              << " at step " << step;
        }
      }
    }
  }
}

TEST(LinkModelPropertyTest, ChangeLogForgetsWhatItCannotCover) {
  Rng rng(5);
  std::vector<Point> positions;
  for (int i = 0; i < 30; ++i) {
    positions.push_back({rng.UniformDouble(0, 1), rng.UniformDouble(0, 1)});
  }
  LinkModel lm(positions, std::vector<double>(30, 0.3), 0.0);
  const LinkModel other(positions, std::vector<double>(30, 0.3), 0.0);
  std::vector<NodeId> changed{7};
  // The current geometry needs nothing; another model's never happened
  // here, and a refusal appends nothing.
  EXPECT_TRUE(lm.ChangedSince(lm.version(), &changed));
  EXPECT_FALSE(lm.ChangedSince(other.version(), &changed));
  EXPECT_EQ(changed, std::vector<NodeId>{7});

  const uint64_t start = lm.version();
  lm.SetPosition(3, {0.5, 0.5});
  const uint64_t after_one = lm.version();
  changed.clear();
  EXPECT_TRUE(lm.ChangedSince(start, &changed));
  EXPECT_NE(std::find(changed.begin(), changed.end(), 3u), changed.end());

  // Every SetPosition logs its mover: this many push `start` out.
  for (size_t k = 0; k < LinkModel::kChangeLogCapacity; ++k) {
    lm.SetPosition(static_cast<NodeId>(k % 30),
                   {rng.UniformDouble(0, 1), rng.UniformDouble(0, 1)});
  }
  changed.clear();
  EXPECT_FALSE(lm.ChangedSince(start, &changed));
  EXPECT_FALSE(lm.ChangedSince(after_one, &changed));
  EXPECT_TRUE(changed.empty());
  const uint64_t recent = lm.version();
  lm.SetPosition(4, {0.1, 0.1});
  EXPECT_TRUE(lm.ChangedSince(recent, &changed));
  EXPECT_NE(std::find(changed.begin(), changed.end(), 4u), changed.end());
}

}  // namespace
}  // namespace snapq
