// Flooding-built aggregation tree, as in TAG [11] / the paper's §6.2: the
// sink floods a tree-formation beacon; each node adopts the first
// (lowest-hop) sender it hears as its parent. We build the BFS tree
// deterministically over the live bidirectional-connectivity graph —
// requests travel sink->leaves, replies and partial aggregates travel back
// up the same edges, so links must work both ways.
//
// TAG builds the tree once and then maintains it; so does Repair() here.
// A built tree and a repaired one are the same pure function of (graph,
// alive set, sink, favor bits): depth is the hop distance, and a node's
// parent is its best two-way neighbour one layer up — favored first, then
// the smallest id.
#ifndef SNAPQ_QUERY_ROUTING_TREE_H_
#define SNAPQ_QUERY_ROUTING_TREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "net/link_model.h"
#include "net/node_id.h"

namespace snapq {

/// A rooted tree over the live nodes reachable from the sink.
class RoutingTree {
 public:
  /// Builds the BFS tree rooted at `sink`. `alive[i]` gates node i's
  /// participation; dead nodes neither route nor respond. Ties (equal-depth
  /// parents) break toward the smallest parent id, matching the
  /// deterministic first-heard order of a simultaneous flood.
  ///
  /// `favor`: optional bias (the paper's §3.1 note that routing can favor
  /// representatives): among equal-depth parent candidates, nodes with
  /// favor[i] == true win over unfavored ones.
  static RoutingTree Build(const LinkModel& links,
                           const std::vector<bool>& alive, NodeId sink,
                           const std::vector<bool>* favor = nullptr);

  /// Working memory Repair reuses between calls, so a warm repair
  /// allocates nothing.
  struct RepairScratch {
    struct Moved {
      NodeId node = kInvalidNode;
      int old_depth = -1;
    };
    std::vector<uint8_t> mark;  ///< per node; zero between repairs
    std::vector<NodeId> marked;
    std::vector<std::vector<NodeId>> buckets;  ///< by depth
    std::vector<NodeId> raised;
    std::vector<Moved> moved;  ///< nodes whose depth was rewritten, once
  };

  /// Brings this tree up to date with `links`, `alive` and the same sink
  /// and favor bits it was built for, touching only what changed:
  ///
  ///  * `changed`: every node with a link that differs from the tree's
  ///    graph (LinkModel::ChangedSince; repeats allowed);
  ///  * `died`: every node alive for the tree's build and not in `alive`
  ///    (nodes never come back: `alive` may only shrink).
  ///
  /// The result equals Build(links, alive, sink(), favor) bit for bit.
  /// Depths first rise for nodes that lost every two-way neighbour one
  /// layer up (increasing depth), then fall by a bucketed BFS from the
  /// changed nodes and the border of the risen set; parents are then
  /// recomputed wherever a row, a liveness, a depth or a neighbour's
  /// depth changed.
  void Repair(const LinkModel& links, const std::vector<bool>& alive,
              std::span<const NodeId> changed, std::span<const NodeId> died,
              const std::vector<bool>* favor, RepairScratch* scratch);

  NodeId sink() const { return sink_; }

  /// Parent of `id`; kInvalidNode for the sink and unreachable nodes.
  NodeId parent(NodeId id) const { return parent_[id]; }

  /// Hop distance from the sink; negative when unreachable.
  int depth(NodeId id) const { return depth_[id]; }

  /// True when `id` has a path to the sink.
  bool IsReachable(NodeId id) const { return depth_[id] >= 0; }

  /// Number of nodes with a path to the sink (the sink included).
  size_t CountReachable() const;

  /// Deepest reachable node's hop distance; 0 for a lone sink.
  int MaxDepth() const;

  size_t num_nodes() const { return parent_.size(); }

 private:
  RoutingTree(NodeId sink, std::vector<NodeId> parent, std::vector<int> depth)
      : sink_(sink), parent_(std::move(parent)), depth_(std::move(depth)) {}

  /// The parent rule: `v`'s best two-way neighbour one layer up (favored
  /// first, then the smallest id); kInvalidNode at depth <= 0.
  NodeId BestParent(const LinkModel& links, NodeId v,
                    const std::vector<bool>* favor) const;

  NodeId sink_;
  std::vector<NodeId> parent_;
  std::vector<int> depth_;
};

}  // namespace snapq

#endif  // SNAPQ_QUERY_ROUTING_TREE_H_
