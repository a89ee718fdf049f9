// The representation relation: "rep represents member since election epoch
// e", the fact behind §3.1's snapshot rule and §3's spurious-representative
// correction. This index is its only store. It holds both sides:
//   * each node's own row: its mode, the representative it chose and its
//     election epoch. A SnapshotAgent's mode, representative and epoch are
//     this row, so a capture reads one flat array, not every agent;
//   * each representative's claims, written only through
//     SnapshotAgent::SetRepresents.
// The agents, the query layer and CaptureSnapshot read it.
//
// Each claim, a (member, rep, epoch) triple, is one pooled cell, linked into
// two singly linked chains:
//   * member -> reps, in no particular order: who answers for a node;
//   * rep -> members, in ascending member order: what a representative
//     holds, in the order its RepAck and Resign messages list them.
// Memory is one row and two heads per node plus one cell per claim, with no
// per-node heap allocation; a removed claim's cell is reused.
//
// Lives with the simulator because that is the one object every agent of a
// network and every executor over it share. Like the simulator's message
// handlers, it assumes one agent per node for the simulator's lifetime.
#ifndef SNAPQ_SIM_REPRESENTATION_INDEX_H_
#define SNAPQ_SIM_REPRESENTATION_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/node_id.h"

namespace snapq {

/// §5: a node's status flag. Initially undefined; the refinement rules set
/// it to ACTIVE (represents a non-empty set including itself, answers
/// snapshot queries) or PASSIVE (represented by another node, stays idle).
enum class NodeMode {
  kUndefined,
  kActive,
  kPassive,
};

class RepresentationIndex {
 private:
  static constexpr uint32_t kNone = ~uint32_t{0};
  struct Cell {
    NodeId member = kInvalidNode;
    NodeId rep = kInvalidNode;
    int64_t epoch = 0;
    uint32_t next_rep = kNone;     ///< member's next cell, or next free cell
    uint32_t next_member = kNone;  ///< rep's next cell (larger member)
  };

 public:
  /// A representative's members as (member, epoch) pairs in ascending
  /// member order. Valid until the index next changes.
  class Members {
   public:
    class Iterator {
     public:
      std::pair<NodeId, int64_t> operator*() const {
        return {cells_[cell_].member, cells_[cell_].epoch};
      }
      Iterator& operator++() {
        cell_ = cells_[cell_].next_member;
        return *this;
      }
      bool operator==(const Iterator& other) const {
        return cell_ == other.cell_;
      }

     private:
      friend class Members;
      Iterator(const Cell* cells, uint32_t cell)
          : cells_(cells), cell_(cell) {}
      const Cell* cells_;
      uint32_t cell_;
    };

    Iterator begin() const { return {cells_, head_}; }
    Iterator end() const { return {cells_, kNone}; }
    bool empty() const { return head_ == kNone; }
    /// Walks the chain.
    size_t size() const;

   private:
    friend class RepresentationIndex;
    Members(const Cell* cells, uint32_t head) : cells_(cells), head_(head) {}
    const Cell* cells_;
    uint32_t head_;
  };

  /// A node's own side of the relation.
  struct Node {
    NodeMode mode = NodeMode::kUndefined;
    /// The representative this node chose (itself when unrepresented).
    NodeId representative = kInvalidNode;
    /// This node's election epoch when it last chose its representative.
    int64_t epoch = 0;
  };

  explicit RepresentationIndex(size_t num_nodes)
      : nodes_(num_nodes),
        member_head_(num_nodes, kNone),
        rep_head_(num_nodes, kNone) {}

  size_t num_nodes() const { return nodes_.size(); }
  /// Node `id`'s row; its agent holds references into it for the index's
  /// lifetime (the row array never grows).
  Node& node(NodeId id) { return nodes_[id]; }
  const Node& node(NodeId id) const { return nodes_[id]; }

  /// Records that `rep` represents `member` since `epoch`, replacing the
  /// epoch when it already does.
  void Set(NodeId member, NodeId rep, int64_t epoch);
  /// Forgets that `rep` represents `member`; a no-op when it did not.
  void Remove(NodeId member, NodeId rep);

  /// The epoch since which `rep` represents `member`, found on the
  /// member's chain; nullopt when it does not.
  std::optional<int64_t> EpochOf(NodeId member, NodeId rep) const;

  /// Invokes fn(rep) for every representative of `member`, in no
  /// particular order.
  template <typename Fn>
  void ForEachRep(NodeId member, Fn&& fn) const {
    for (uint32_t c = member_head_[member]; c != kNone;
         c = cells_[c].next_rep) {
      fn(cells_[c].rep);
    }
  }

  /// The members `rep` represents.
  Members MembersOf(NodeId rep) const {
    return Members(cells_.data(), rep_head_[rep]);
  }

 private:
  std::vector<Node> nodes_;
  std::vector<uint32_t> member_head_;  ///< first cell per member
  std::vector<uint32_t> rep_head_;     ///< first (smallest member) cell per rep
  std::vector<Cell> cells_;
  uint32_t free_ = kNone;              ///< first unused cell
};

}  // namespace snapq

#endif  // SNAPQ_SIM_REPRESENTATION_INDEX_H_
