// SnapshotView, an immutable capture of the representation state for query
// processing and analysis.
//
// A view holds one fixed-size row per node (mode, representative, epoch,
// liveness) and one flat list of represents-entries sorted by
// (representative, member); an offset per node finds a representative's
// slice. CaptureSnapshot (snapshot/election.h) fills both from the
// simulator's RepresentationIndex, the one live store of the relation, in
// one pass over its rows and rep chains. A view is a copy: later protocol
// events leave it unchanged.
#ifndef SNAPQ_SNAPSHOT_NODE_STATE_H_
#define SNAPQ_SNAPSHOT_NODE_STATE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/node_id.h"
#include "sim/representation_index.h"

namespace snapq {

const char* NodeModeName(NodeMode mode);

/// Immutable capture of the network's representation state after an
/// election (or at any instant during maintenance). Index = NodeId.
class SnapshotView {
 public:
  struct NodeInfo {
    NodeMode mode = NodeMode::kUndefined;
    /// Who this node believes represents it (self id when unrepresented).
    NodeId representative = kInvalidNode;
    /// This node's election epoch when it last chose its representative.
    int64_t epoch = 0;
    /// False when the node is dead (battery exhausted / killed).
    bool alive = true;
  };
  /// One represents-entry: `rep` believes it represents `member`, as
  /// recorded at `member`'s election epoch `epoch`.
  struct Entry {
    NodeId rep = kInvalidNode;
    NodeId member = kInvalidNode;
    int64_t epoch = 0;
  };

  /// `entries` must be sorted by (rep, member), hold no pair twice and
  /// name only nodes of `nodes`.
  explicit SnapshotView(std::vector<NodeInfo> nodes,
                        std::vector<Entry> entries = {});

  size_t num_nodes() const { return nodes_.size(); }
  const NodeInfo& node(NodeId id) const { return nodes_[id]; }
  const std::vector<NodeInfo>& nodes() const { return nodes_; }
  /// Every represents-entry, sorted by (rep, member).
  std::span<const Entry> entries() const { return entries_; }
  /// The entries node `rep` holds, in ascending member order.
  std::span<const Entry> represents(NodeId rep) const {
    return std::span<const Entry>(entries_).subspan(
        first_[rep], first_[rep + 1] - first_[rep]);
  }

  /// Number of ACTIVE nodes: the snapshot size n1 the paper plots.
  size_t CountActive() const;

  /// Number of PASSIVE nodes.
  size_t CountPassive() const;

  /// Nodes still UNDEFINED (should be zero after a completed election).
  size_t CountUndefined() const;

  /// Spurious representatives (§3, Fig 13): nodes holding at least one
  /// stale represents-entry — they believe they represent some N_j whose
  /// own record points to a different (or newer-epoch) representative.
  size_t CountSpurious() const;

  /// True when node `rep` holds a *current* (non-stale) representation of
  /// node `j`.
  bool RepresentsCurrently(NodeId rep, NodeId j) const;

  /// The nodes that answer a snapshot query on behalf of `j` (j itself when
  /// ACTIVE, else its current representative); kInvalidNode when nobody
  /// would answer (e.g. all stale).
  NodeId ResponderFor(NodeId j) const;

 private:
  std::vector<NodeInfo> nodes_;
  std::vector<Entry> entries_;
  /// Node r's entries are entries_[first_[r], first_[r + 1]).
  std::vector<uint32_t> first_;
};

}  // namespace snapq

#endif  // SNAPQ_SNAPSHOT_NODE_STATE_H_
