// Uniform-grid spatial index over node positions.
//
// The grid partitions the plane into square cells of a fixed edge length
// (LinkModel uses the maximum transmission range). Each occupied cell owns
// a bucket of node ids kept in ascending order, and the cell table is an
// open-addressed hash map keyed by the packed integer cell coordinates —
// only occupied cells cost memory, so the index works for any deployment
// area without knowing its bounds up front.
//
// Why the cell edge is the *maximum* range: a node j can hear node i only
// when their distance is at most max(range), so every candidate neighbor
// of a cell lives in that cell or one of its 8 surrounding cells. A
// neighbor query therefore touches at most 9 buckets — O(k) in the local
// node count k instead of O(n) over the whole deployment.
//
// Determinism contract: queries never iterate the hash table. Cells are
// visited in row-major geometric order and each bucket yields ids in
// ascending order, so the candidate stream for a given placement is a
// pure function of the positions — independent of insertion order, hash
// capacity or prior churn. Callers that need a fully id-sorted row (the
// LinkModel adjacency invariant) sort the O(k) accepted candidates. The
// one exception is a rectangle spanning more cells than are occupied
// (ForEachCandidateInRect), which visits the occupied cells in creation
// order; its callers sort what they keep.
#ifndef SNAPQ_NET_SPATIAL_INDEX_H_
#define SNAPQ_NET_SPATIAL_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/geometry.h"
#include "net/node_id.h"

namespace snapq {

class SpatialIndex {
 public:
  /// An empty index (no nodes, unit cell edge).
  SpatialIndex() : SpatialIndex({}, 1.0) {}

  /// Builds the grid over `positions` (node i at positions[i]) with square
  /// cells of edge `cell_edge` > 0.
  SpatialIndex(std::span<const Point> positions, double cell_edge);

  double cell_edge() const { return cell_edge_; }
  size_t num_nodes() const { return num_nodes_; }
  /// Number of occupied cells (cells keep their slot once created, so this
  /// counts every cell that ever held a node).
  size_t num_cells() const { return buckets_.size(); }

  /// Incremental cell migration for a node that moved from `from` to
  /// `to`: O(bucket) when the cell changes, O(1) when it does not.
  void Move(NodeId id, const Point& from, const Point& to);

  /// Invokes fn(id) for every node whose cell intersects the closed disc
  /// (center, radius) — a candidate superset of the nodes actually within
  /// `radius`; callers distance-test. Cells are visited row-major and each
  /// bucket in ascending id order (see the determinism contract above).
  /// With radius <= cell_edge at most 3x3 cells are touched.
  template <typename Fn>
  void ForEachCandidate(const Point& center, double radius, Fn&& fn) const {
    const int32_t x0 = CellCoord(center.x - radius);
    const int32_t x1 = CellCoord(center.x + radius);
    const int32_t y0 = CellCoord(center.y - radius);
    const int32_t y1 = CellCoord(center.y + radius);
    for (int32_t cy = y0; cy <= y1; ++cy) {
      for (int32_t cx = x0; cx <= x1; ++cx) {
        const std::vector<NodeId>* bucket = FindBucket(PackKey(cx, cy));
        if (bucket == nullptr) continue;
        for (const NodeId id : *bucket) fn(id);
      }
    }
  }

  /// Invokes fn(id) for every node whose cell intersects the closed
  /// rectangle `rect` — a candidate superset of the nodes `rect` contains;
  /// callers test Rect::Contains. Cells are visited row-major, except
  /// that a rectangle spanning more cells than are occupied (EVERYWHERE's
  /// +/-1e300, say) scans the occupied cells instead, in creation order.
  /// A rectangle with a NaN or inverted bound contains nothing.
  template <typename Fn>
  void ForEachCandidateInRect(const Rect& rect, Fn&& fn) const {
    if (!(rect.min_x <= rect.max_x && rect.min_y <= rect.max_y)) return;
    const int32_t x0 = CellCoord(rect.min_x);
    const int32_t x1 = CellCoord(rect.max_x);
    const int32_t y0 = CellCoord(rect.min_y);
    const int32_t y1 = CellCoord(rect.max_y);
    const double cells = (static_cast<double>(x1) - x0 + 1.0) *
                         (static_cast<double>(y1) - y0 + 1.0);
    if (cells > static_cast<double>(buckets_.size())) {
      for (const std::vector<NodeId>& bucket : buckets_) {
        for (const NodeId id : bucket) fn(id);
      }
      return;
    }
    for (int32_t cy = y0; cy <= y1; ++cy) {
      for (int32_t cx = x0; cx <= x1; ++cx) {
        const std::vector<NodeId>* bucket = FindBucket(PackKey(cx, cy));
        if (bucket == nullptr) continue;
        for (const NodeId id : *bucket) fn(id);
      }
    }
  }

  /// The bucket holding `p`'s cell (ascending ids), or an empty span.
  std::span<const NodeId> CellOf(const Point& p) const;

 private:
  /// Grid coordinate of one axis value, clamped so that the +/-1 cell
  /// arithmetic of a query can never overflow. Clamping is safe: a node
  /// farther than ~2^30 cell edges from a query point is farther than any
  /// radius <= cell_edge, and degenerate same-clamp collisions only ever
  /// *add* candidates (the caller distance-tests).
  int32_t CellCoord(double v) const;
  static uint64_t PackKey(int32_t cx, int32_t cy) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(cx)) << 32) |
           static_cast<uint64_t>(static_cast<uint32_t>(cy));
  }
  uint64_t KeyOf(const Point& p) const {
    return PackKey(CellCoord(p.x), CellCoord(p.y));
  }

  const std::vector<NodeId>* FindBucket(uint64_t key) const;
  /// The bucket for `key`, creating the cell (and growing the table) if
  /// needed.
  std::vector<NodeId>& EnsureBucket(uint64_t key);
  void Insert(NodeId id, const Point& p);
  void GrowTable();

  double cell_edge_ = 1.0;
  double inv_cell_edge_ = 1.0;
  size_t num_nodes_ = 0;

  /// Open-addressed cell table: linear probing over power-of-two capacity.
  /// slot_bucket_[s] == -1 marks an empty slot; otherwise it indexes
  /// buckets_ and slot_key_[s] is the packed cell coordinate. Buckets are
  /// never deleted (an emptied cell keeps its slot), so no tombstones.
  std::vector<uint64_t> slot_key_;
  std::vector<int32_t> slot_bucket_;
  std::vector<std::vector<NodeId>> buckets_;
  size_t occupied_ = 0;
};

}  // namespace snapq

#endif  // SNAPQ_NET_SPATIAL_INDEX_H_
