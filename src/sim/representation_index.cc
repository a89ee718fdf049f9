#include "sim/representation_index.h"

#include "common/check.h"

namespace snapq {

void RepresentationIndex::Add(NodeId member, NodeId rep) {
  SNAPQ_CHECK_LT(member, head_.size());
  for (uint32_t c = head_[member]; c != kNone; c = cells_[c].next) {
    if (cells_[c].rep == rep) return;
  }
  uint32_t cell = free_;
  if (cell != kNone) {
    free_ = cells_[cell].next;
  } else {
    cell = static_cast<uint32_t>(cells_.size());
    cells_.emplace_back();
  }
  cells_[cell] = Cell{rep, head_[member]};
  head_[member] = cell;
}

void RepresentationIndex::Remove(NodeId member, NodeId rep) {
  SNAPQ_CHECK_LT(member, head_.size());
  for (uint32_t* link = &head_[member]; *link != kNone;
       link = &cells_[*link].next) {
    const uint32_t cell = *link;
    if (cells_[cell].rep != rep) continue;
    *link = cells_[cell].next;
    cells_[cell].next = free_;
    free_ = cell;
    return;
  }
}

}  // namespace snapq
