#include "snapshot/node_state.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace snapq {

const char* NodeModeName(NodeMode mode) {
  switch (mode) {
    case NodeMode::kUndefined:
      return "UNDEFINED";
    case NodeMode::kActive:
      return "ACTIVE";
    case NodeMode::kPassive:
      return "PASSIVE";
  }
  return "?";
}

SnapshotView::SnapshotView(std::vector<NodeInfo> nodes,
                           std::vector<Entry> entries)
    : nodes_(std::move(nodes)),
      entries_(std::move(entries)),
      first_(nodes_.size() + 1, 0) {
  for (size_t k = 0; k < entries_.size(); ++k) {
    const Entry& entry = entries_[k];
    SNAPQ_CHECK_LT(entry.rep, nodes_.size());
    SNAPQ_CHECK_LT(entry.member, nodes_.size());
    if (k > 0) {
      const Entry& prev = entries_[k - 1];
      SNAPQ_CHECK(prev.rep < entry.rep ||
                  (prev.rep == entry.rep && prev.member < entry.member));
    }
    ++first_[entry.rep + 1];
  }
  for (size_t r = 0; r < nodes_.size(); ++r) first_[r + 1] += first_[r];
}

size_t SnapshotView::CountActive() const {
  size_t n = 0;
  for (const NodeInfo& info : nodes_) {
    if (info.alive && info.mode == NodeMode::kActive) ++n;
  }
  return n;
}

size_t SnapshotView::CountPassive() const {
  size_t n = 0;
  for (const NodeInfo& info : nodes_) {
    if (info.alive && info.mode == NodeMode::kPassive) ++n;
  }
  return n;
}

size_t SnapshotView::CountUndefined() const {
  size_t n = 0;
  for (const NodeInfo& info : nodes_) {
    if (info.alive && info.mode == NodeMode::kUndefined) ++n;
  }
  return n;
}

bool SnapshotView::RepresentsCurrently(NodeId rep, NodeId j) const {
  if (rep == j) return true;
  const std::span<const Entry> held = represents(rep);
  const auto it = std::lower_bound(
      held.begin(), held.end(), j,
      [](const Entry& entry, NodeId member) { return entry.member < member; });
  if (it == held.end() || it->member != j) return false;
  const NodeInfo& target = nodes_[j];
  // Stale when the represented node has moved on: different representative
  // or a newer election epoch than the one the holder recorded.
  return target.representative == rep && target.epoch == it->epoch;
}

size_t SnapshotView::CountSpurious() const {
  size_t n = 0;
  for (NodeId rep = 0; rep < nodes_.size(); ++rep) {
    if (!nodes_[rep].alive) continue;
    for (const Entry& entry : represents(rep)) {
      if (!RepresentsCurrently(rep, entry.member)) {
        ++n;
        break;  // count nodes, not entries
      }
    }
  }
  return n;
}

NodeId SnapshotView::ResponderFor(NodeId j) const {
  const NodeInfo& info = nodes_[j];
  if (info.mode != NodeMode::kPassive) {
    return info.alive ? j : kInvalidNode;
  }
  const NodeId rep = info.representative;
  if (rep == kInvalidNode || rep == j) {
    return info.alive ? j : kInvalidNode;
  }
  if (nodes_[rep].alive && RepresentsCurrently(rep, j)) {
    return rep;
  }
  return kInvalidNode;
}

}  // namespace snapq
