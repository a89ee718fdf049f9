#include "sim/representation_index.h"

#include "common/check.h"

namespace snapq {

size_t RepresentationIndex::Members::size() const {
  size_t n = 0;
  for (uint32_t c = head_; c != kNone; c = cells_[c].next_member) ++n;
  return n;
}

void RepresentationIndex::Set(NodeId member, NodeId rep, int64_t epoch) {
  SNAPQ_CHECK_LT(member, member_head_.size());
  SNAPQ_CHECK_LT(rep, rep_head_.size());
  for (uint32_t c = member_head_[member]; c != kNone;
       c = cells_[c].next_rep) {
    if (cells_[c].rep == rep) {
      cells_[c].epoch = epoch;
      return;
    }
  }
  uint32_t cell = free_;
  if (cell != kNone) {
    free_ = cells_[cell].next_rep;
  } else {
    cell = static_cast<uint32_t>(cells_.size());
    cells_.emplace_back();
  }
  // The rep's chain stays ascending: link in before the first larger member.
  uint32_t* link = &rep_head_[rep];
  while (*link != kNone && cells_[*link].member < member) {
    link = &cells_[*link].next_member;
  }
  cells_[cell] = Cell{member, rep, epoch, member_head_[member], *link};
  member_head_[member] = cell;
  *link = cell;
}

void RepresentationIndex::Remove(NodeId member, NodeId rep) {
  SNAPQ_CHECK_LT(member, member_head_.size());
  uint32_t* link = &member_head_[member];
  while (*link != kNone && cells_[*link].rep != rep) {
    link = &cells_[*link].next_rep;
  }
  const uint32_t cell = *link;
  if (cell == kNone) return;
  *link = cells_[cell].next_rep;
  link = &rep_head_[rep];
  while (*link != cell) link = &cells_[*link].next_member;
  *link = cells_[cell].next_member;
  cells_[cell].next_rep = free_;
  free_ = cell;
}

std::optional<int64_t> RepresentationIndex::EpochOf(NodeId member,
                                                    NodeId rep) const {
  SNAPQ_CHECK_LT(member, member_head_.size());
  for (uint32_t c = member_head_[member]; c != kNone;
       c = cells_[c].next_rep) {
    if (cells_[c].rep == rep) return cells_[c].epoch;
  }
  return std::nullopt;
}

}  // namespace snapq
