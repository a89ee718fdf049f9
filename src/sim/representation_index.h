// The member -> representatives relation, inverted from the agents'
// represents() maps. Snapshot agents record every change to their map
// here; the query layer reads it to find who answers for a node without
// walking every representative's map (§3.1's snapshot rule).
//
// Lives with the simulator because that is the one object every agent of
// a network and every executor over it share. Like the simulator's message
// handlers, it assumes one agent per node for the simulator's lifetime. Memory is one head per node
// plus a pooled cell per (member, representative) pair — no per-node
// heap allocation, and a removed pair's cell is reused.
#ifndef SNAPQ_SIM_REPRESENTATION_INDEX_H_
#define SNAPQ_SIM_REPRESENTATION_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/node_id.h"

namespace snapq {

class RepresentationIndex {
 public:
  explicit RepresentationIndex(size_t num_nodes) : head_(num_nodes, kNone) {}

  /// Records that `rep` represents `member`; a no-op when it already does.
  void Add(NodeId member, NodeId rep);
  /// Forgets that `rep` represents `member`; a no-op when it did not.
  void Remove(NodeId member, NodeId rep);

  /// Invokes fn(rep) for every representative of `member`, in no
  /// particular order.
  template <typename Fn>
  void ForEachRep(NodeId member, Fn&& fn) const {
    for (uint32_t c = head_[member]; c != kNone; c = cells_[c].next) {
      fn(cells_[c].rep);
    }
  }

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};
  struct Cell {
    NodeId rep = kInvalidNode;
    uint32_t next = kNone;  ///< next cell of the member, or of the free list
  };

  std::vector<uint32_t> head_;  ///< first cell per member
  std::vector<Cell> cells_;
  uint32_t free_ = kNone;       ///< first unused cell
};

}  // namespace snapq

#endif  // SNAPQ_SIM_REPRESENTATION_INDEX_H_
