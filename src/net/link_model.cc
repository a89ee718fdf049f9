#include "net/link_model.h"

#include <algorithm>
#include <atomic>
#include <type_traits>

#include "common/check.h"

namespace snapq {
namespace {

// 100k-node safety audit: the packed link_loss_ key from * num_nodes + to
// needs headroom for num_nodes^2, which a 64-bit key has exactly when the
// id type stays within 32 bits. Anyone widening NodeId must widen the key.
static_assert(std::is_unsigned_v<NodeId>, "packed keys assume unsigned ids");
static_assert(sizeof(uint64_t) >= 2 * sizeof(NodeId),
              "link_loss_ key from * num_nodes + to would overflow");

double MaxRange(const std::vector<double>& ranges) {
  double max_range = 0.0;
  for (const double r : ranges) max_range = std::max(max_range, r);
  return max_range;
}

/// The next geometry version; shared by every model in the process (and
/// by parallel sweeps' threads), so versions never repeat.
uint64_t NextVersion() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

}  // namespace

LinkModel::LinkModel(std::vector<Point> positions, std::vector<double> ranges,
                     double loss_probability)
    : positions_(std::move(positions)),
      ranges_(std::move(ranges)),
      loss_probability_(loss_probability),
      max_range_(MaxRange(ranges_)),
      index_(positions_, max_range_ > 0.0 ? max_range_ : 1.0),
      version_(NextVersion()),
      log_floor_(version_) {
  SNAPQ_CHECK_EQ(positions_.size(), ranges_.size());
  SNAPQ_CHECK(loss_probability_ >= 0.0 && loss_probability_ <= 1.0);
  // Equal ranges make every link two-way: DistanceSquared is exactly
  // symmetric (the differences only change sign).
  for (const double r : ranges_) symmetric_ = symmetric_ && r == ranges_[0];
  const size_t n = positions_.size();
  // Ids must stay below the broadcast/invalid sentinels.
  SNAPQ_CHECK_LE(n, static_cast<size_t>(kBroadcastId));
  row_offset_.resize(n);
  row_length_.resize(n);
  overlay_index_.assign(n, -1);
  std::vector<NodeId> row;
  for (NodeId i = 0; i < n; ++i) {
    BuildRow(i, &row);
    row_offset_[i] = adjacency_.size();
    row_length_[i] = static_cast<uint32_t>(row.size());
    adjacency_.insert(adjacency_.end(), row.begin(), row.end());
  }
}

void LinkModel::BuildRow(NodeId id, std::vector<NodeId>* out) const {
  out->clear();
  const Point& p = positions_[id];
  const double r = ranges_[id];
  const double r2 = r * r;
  index_.ForEachCandidate(p, r, [&](NodeId j) {
    if (j != id && DistanceSquared(p, positions_[j]) <= r2) {
      out->push_back(j);
    }
  });
  // Candidates arrive in per-cell order; the adjacency invariant (and the
  // historical brute-force build) is ascending id order.
  std::sort(out->begin(), out->end());
}

bool LinkModel::CanReach(NodeId from, NodeId to) const {
  SNAPQ_DCHECK(from < num_nodes() && to < num_nodes());
  if (from == to) return false;
  const double r = ranges_[from];
  return DistanceSquared(positions_[from], positions_[to]) <= r * r;
}

bool LinkModel::SampleLoss(NodeId from, NodeId to, Rng& rng) const {
  double p = loss_probability_;
  if (!link_loss_.empty()) {
    const auto it = link_loss_.find(static_cast<uint64_t>(from) * num_nodes() +
                                    to);
    if (it != link_loss_.end()) p = it->second;
  }
  return rng.Bernoulli(p);
}

void LinkModel::SetLossProbability(double p) {
  SNAPQ_CHECK(p >= 0.0 && p <= 1.0);
  loss_probability_ = p;
}

void LinkModel::SetLinkLoss(NodeId from, NodeId to, double loss_probability) {
  SNAPQ_CHECK(loss_probability >= 0.0 && loss_probability <= 1.0);
  link_loss_[static_cast<uint64_t>(from) * num_nodes() + to] =
      loss_probability;
}

std::vector<NodeId>& LinkModel::MutableRow(NodeId id) {
  const int32_t overlay = overlay_index_[id];
  if (overlay >= 0) return overlay_rows_[static_cast<size_t>(overlay)];
  overlay_index_[id] = static_cast<int32_t>(overlay_rows_.size());
  const NodeId* base = adjacency_.data() + row_offset_[id];
  overlay_rows_.emplace_back(base, base + row_length_[id]);
  return overlay_rows_.back();
}

void LinkModel::Compact() {
  const size_t n = num_nodes();
  std::vector<NodeId> flat;
  flat.reserve(adjacency_.size());
  std::vector<uint64_t> offsets(n);
  std::vector<uint32_t> lengths(n);
  for (NodeId i = 0; i < n; ++i) {
    const std::span<const NodeId> row = Reachable(i);
    offsets[i] = flat.size();
    lengths[i] = static_cast<uint32_t>(row.size());
    flat.insert(flat.end(), row.begin(), row.end());
  }
  adjacency_ = std::move(flat);
  row_offset_ = std::move(offsets);
  row_length_ = std::move(lengths);
  overlay_rows_.clear();
  std::fill(overlay_index_.begin(), overlay_index_.end(), -1);
}

void LinkModel::LogChange(NodeId id) {
  if (log_.size() < kChangeLogCapacity) {
    log_.push_back({version_, id});
    return;
  }
  // Overwriting the oldest record loses a change that produced
  // log_floor_'s successor state, so the log now starts at its version.
  log_floor_ = log_[log_next_].version;
  log_[log_next_] = {version_, id};
  log_next_ = (log_next_ + 1) % kChangeLogCapacity;
}

bool LinkModel::ChangedSince(uint64_t since, std::vector<NodeId>* out) const {
  if (since == version_) return true;
  // Walk newest to oldest. Versions only grow along the log, so the walk
  // stops at the first record at or before `since`: `since` is a state of
  // this model iff that record carries it exactly (every SetPosition logs
  // its mover), or the walk runs out with `since` as the floor.
  const size_t size = log_.size();
  const size_t first = out->size();
  for (size_t k = 0; k < size; ++k) {
    const ChangeRecord& record = log_[(log_next_ + size - 1 - k) % size];
    if (record.version > since) {
      out->push_back(record.node);
      continue;
    }
    if (record.version == since) return true;
    break;
  }
  if (since == log_floor_ && out->size() - first == size) return true;
  out->resize(first);
  return false;
}

void LinkModel::SetPosition(NodeId id, const Point& position) {
  SNAPQ_CHECK_LT(id, num_nodes());
  const Point old = positions_[id];
  positions_[id] = position;
  version_ = NextVersion();
  index_.Move(id, old, position);
  LogChange(id);

  // Rebuild the mover's own row from the grid.
  std::vector<NodeId> row;
  BuildRow(id, &row);
  MutableRow(id) = std::move(row);

  // Patch every other row's membership of the mover. Only nodes within
  // the maximum transmission range of the old or the new position can
  // possibly gain or lose the link, and the grid hands us exactly those.
  std::vector<NodeId> candidates;
  const auto collect = [&](NodeId j) {
    if (j != id) candidates.push_back(j);
  };
  index_.ForEachCandidate(old, max_range_, collect);
  index_.ForEachCandidate(position, max_range_, collect);
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  const double r2 = ranges_[id] * ranges_[id];
  for (const NodeId j : candidates) {
    const double rj = ranges_[j];
    const bool now_reachable =
        DistanceSquared(positions_[j], position) <= rj * rj;
    const std::span<const NodeId> row_j = Reachable(j);
    const auto it = std::lower_bound(row_j.begin(), row_j.end(), id);
    const bool was_reachable = it != row_j.end() && *it == id;
    // j's own row changes, or the mover's row gains or loses j: either
    // way a link between the two changed.
    const bool heard_before = DistanceSquared(old, positions_[j]) <= r2;
    const bool heard_now = DistanceSquared(position, positions_[j]) <= r2;
    if (now_reachable != was_reachable || heard_before != heard_now) {
      LogChange(j);
    }
    if (now_reachable == was_reachable) continue;
    std::vector<NodeId>& mutable_row = MutableRow(j);
    const auto mit =
        std::lower_bound(mutable_row.begin(), mutable_row.end(), id);
    if (now_reachable) {
      mutable_row.insert(mit, id);
    } else {
      mutable_row.erase(mit);
    }
  }

  // Keep the overlay small: fold it back into the flat array once it
  // covers a fraction of the rows (contents are unchanged by this).
  if (overlay_rows_.size() > std::max<size_t>(64, num_nodes() / 4)) {
    Compact();
  }
}

bool LinkModel::IsConnected() const {
  const size_t n = num_nodes();
  if (n == 0) return true;
  // The undirected closure (i ~ j if either can reach the other) needs
  // in-edges too, so build the transpose of the stored adjacency: one
  // counting pass, one fill pass — O(n + edges), no distance tests.
  std::vector<uint64_t> rev_offset(n + 1, 0);
  for (NodeId i = 0; i < n; ++i) {
    for (const NodeId j : Reachable(i)) ++rev_offset[j + 1];
  }
  for (size_t i = 1; i <= n; ++i) rev_offset[i] += rev_offset[i - 1];
  std::vector<NodeId> rev(rev_offset[n]);
  std::vector<uint64_t> cursor(rev_offset.begin(), rev_offset.end() - 1);
  for (NodeId i = 0; i < n; ++i) {
    for (const NodeId j : Reachable(i)) {
      rev[cursor[j]++] = i;
    }
  }

  std::vector<bool> seen(n, false);
  std::vector<NodeId> stack{0};
  seen[0] = true;
  size_t visited = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    const auto visit = [&](NodeId v) {
      if (!seen[v]) {
        seen[v] = true;
        ++visited;
        stack.push_back(v);
      }
    };
    for (const NodeId v : Reachable(u)) visit(v);
    const NodeId* in = rev.data() + rev_offset[u];
    const size_t in_count = rev_offset[u + 1] - rev_offset[u];
    for (size_t k = 0; k < in_count; ++k) visit(in[k]);
  }
  return visited == n;
}

}  // namespace snapq
