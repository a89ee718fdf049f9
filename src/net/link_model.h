// Radio link model: who can hear whom, and which transmissions are lost.
//
// Reachability is range-based and potentially asymmetric (per-node
// transmission ranges; the paper notes the neighbor relation "is, in
// general, not symmetric"). Message loss is i.i.d. Bernoulli per (message,
// receiver) with probability P_loss, optionally overridden per directed
// link to model obstacles.
//
// Scale: adjacency is found through a uniform-grid spatial index (cell
// edge = the maximum transmission range), so construction is O(n * k) in
// the average neighborhood size k instead of the all-pairs O(n^2), and a
// SetPosition move re-tests only the O(k) nodes near the old and new
// positions. The adjacency itself is a compact CSR structure — one flat
// NodeId array plus per-node offset/length spans — with a small
// patch-overlay absorbing mobility edits (compacted back into the flat
// array when it grows past a fraction of the rows). Every row is kept in
// ascending id order, so neighbor iteration order is identical to the
// historical brute-force build.
#ifndef SNAPQ_NET_LINK_MODEL_H_
#define SNAPQ_NET_LINK_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/geometry.h"
#include "common/rng.h"
#include "net/node_id.h"
#include "net/spatial_index.h"

namespace snapq {

/// Immutable placement + ranges; precomputes reachability lists.
class LinkModel {
 public:
  /// `positions[i]` and `ranges[i]` describe node i. Loss probability
  /// applies to every delivery unless overridden per link.
  LinkModel(std::vector<Point> positions, std::vector<double> ranges,
            double loss_probability);

  size_t num_nodes() const { return positions_.size(); }
  const Point& position(NodeId id) const { return positions_[id]; }
  double range(NodeId id) const { return ranges_[id]; }
  double loss_probability() const { return loss_probability_; }

  /// Nodes within transmission range of `from` (excluding `from` itself),
  /// in ascending id order: the nodes that physically hear a broadcast by
  /// `from`, before loss. The span is invalidated by SetPosition.
  std::span<const NodeId> Reachable(NodeId from) const {
    const int32_t overlay = overlay_index_[from];
    if (overlay >= 0) {
      return overlay_rows_[static_cast<size_t>(overlay)];
    }
    return {adjacency_.data() + row_offset_[from], row_length_[from]};
  }

  /// True iff `to` is within `from`'s transmission range.
  bool CanReach(NodeId from, NodeId to) const;

  /// True when every node has the same range, so every link works both
  /// ways: `to` is in Reachable(from) exactly when `from` is in
  /// Reachable(to), and a two-way test needs no distance.
  bool symmetric() const { return symmetric_; }

  /// Samples whether a transmission from->to is lost (true = lost).
  bool SampleLoss(NodeId from, NodeId to, Rng& rng) const;

  /// Changes the loss probability of every link without a per-link
  /// override (a loss burst or a partition mid-run). `p` is in [0, 1].
  void SetLossProbability(double p);

  /// Overrides the loss probability of the directed link from->to (e.g. an
  /// obstacle in the direct path, §3's spurious-representative scenario).
  void SetLinkLoss(NodeId from, NodeId to, double loss_probability);

  /// Moves node `id` to `position` and recomputes the affected
  /// reachability (mobility is one of the network dynamics §3 calls out).
  /// O(k) in the local node count near the old and new positions.
  void SetPosition(NodeId id, const Point& position);

  /// Identifies the current geometry: changes on every SetPosition (even
  /// one that leaves every adjacency row as it was) and on nothing else.
  /// Loss overrides and overlay compaction keep it, since reachability
  /// and routing read only positions and ranges. Values come from one
  /// process-wide sequence, so two models (or a model and one assigned
  /// over it) share a version only when one is a copy of the other's
  /// current geometry. Consumers cache reachability-derived results
  /// (routing trees) keyed on it.
  uint64_t version() const { return version_; }

  /// Records the change log keeps; older changes are forgotten, so a
  /// consumer more than about this many rewritten rows behind recomputes
  /// from scratch.
  static constexpr size_t kChangeLogCapacity = 4096;

  /// Appends to `out` every node whose adjacency row, or whose link with a
  /// moved node, changed after geometry `since` (ids may repeat): any
  /// directed edge that differs from `since` has both endpoints listed.
  /// Returns false, appending nothing, when the bounded log no longer
  /// reaches back to `since` or `since` was never this model's geometry;
  /// the consumer then recomputes from scratch.
  bool ChangedSince(uint64_t since, std::vector<NodeId>* out) const;

  /// True if the undirected connectivity graph is connected (used by
  /// experiments to reject degenerate placements, §6.1 notes ranges below
  /// 0.2 often disconnect a 100-node network). Walks the stored adjacency
  /// (plus its transpose, for asymmetric ranges): O(n + edges).
  bool IsConnected() const;

  /// The spatial index the adjacency was built from (exposed for tests
  /// and diagnostics).
  const SpatialIndex& spatial_index() const { return index_; }
  /// Rows currently living in the mobility overlay instead of the flat
  /// CSR array (exposed for tests; bounded by the compaction threshold).
  size_t overlay_rows() const { return overlay_rows_.size(); }

 private:
  /// Returns `id`'s row as a mutable overlay vector, copying the CSR row
  /// on first touch (copy-on-write for mobility patches).
  std::vector<NodeId>& MutableRow(NodeId id);
  /// Rebuilds `id`'s row from the grid (O(k)), in ascending id order.
  void BuildRow(NodeId id, std::vector<NodeId>* out) const;
  /// Folds the overlay back into a fresh flat CSR array.
  void Compact();
  /// Logs `id` as changed in the current version (see ChangedSince).
  void LogChange(NodeId id);

  std::vector<Point> positions_;
  std::vector<double> ranges_;
  double loss_probability_;
  double max_range_ = 0.0;
  bool symmetric_ = true;
  SpatialIndex index_;  // must follow positions_/ranges_ (init order)

  /// CSR adjacency: row i is adjacency_[row_offset_[i] ..
  /// row_offset_[i] + row_length_[i]), ascending ids. 64-bit offsets:
  /// total edge count can exceed 2^32 long before node ids do.
  std::vector<NodeId> adjacency_;
  std::vector<uint64_t> row_offset_;
  std::vector<uint32_t> row_length_;
  /// Mobility overlay: overlay_index_[i] >= 0 means row i was rewritten
  /// since the last compaction and lives in overlay_rows_ instead.
  std::vector<int32_t> overlay_index_;
  std::vector<std::vector<NodeId>> overlay_rows_;

  uint64_t version_;

  /// Bounded change log: one (version, node) record per node a
  /// SetPosition changed, oldest first until it fills, then a ring whose
  /// oldest record sits at log_next_. Every change after log_floor_ is
  /// still in it.
  struct ChangeRecord {
    uint64_t version = 0;
    NodeId node = kInvalidNode;
  };
  std::vector<ChangeRecord> log_;
  size_t log_next_ = 0;
  uint64_t log_floor_;

  /// Directed link overrides, keyed by from * num_nodes + to.
  std::unordered_map<uint64_t, double> link_loss_;
};

}  // namespace snapq

#endif  // SNAPQ_NET_LINK_MODEL_H_
