#include "query/routing_tree.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace snapq {
namespace {

/// Whether `a` beats `b` as a parent: favored first, then the smaller id.
bool BetterParent(NodeId a, NodeId b, const std::vector<bool>* favor) {
  if (favor != nullptr && (*favor)[a] != (*favor)[b]) return (*favor)[a];
  return a < b;
}

/// Whether the link v -> u of a row entry u in Reachable(v) also works
/// back, u -> v.
bool LinksBack(const LinkModel& links, NodeId u, NodeId v) {
  return links.symmetric() || links.CanReach(u, v);
}

/// Invokes fn(u) for every u with a two-way link to `v`, alive or not,
/// that passes `pred` (tested first: it is cheaper than the distance).
template <typename Pred, typename Fn>
void ForEachTwoWay(const LinkModel& links, NodeId v, Pred&& pred, Fn&& fn) {
  for (const NodeId u : links.Reachable(v)) {
    if (pred(u) && LinksBack(links, u, v)) fn(u);
  }
}

}  // namespace

RoutingTree RoutingTree::Build(const LinkModel& links,
                               const std::vector<bool>& alive, NodeId sink,
                               const std::vector<bool>* favor) {
  const size_t n = links.num_nodes();
  SNAPQ_CHECK_EQ(alive.size(), n);
  SNAPQ_CHECK_LT(sink, n);
  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<int> depth(n, -1);
  if (!alive[sink]) {
    return RoutingTree(sink, std::move(parent), std::move(depth));
  }

  // FIFO BFS. A node takes the first sender one layer up that reaches it
  // and trades it for any better one heard later in that layer, which is
  // the parent rule whatever order the layer is dequeued in.
  depth[sink] = 0;
  std::vector<NodeId> queue{sink};
  for (size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    const int next = depth[u] + 1;
    // A usable tree edge needs both directions: u -> v for dissemination,
    // v -> u for the reply.
    for (const NodeId v : links.Reachable(u)) {
      if ((depth[v] >= 0 && depth[v] != next) || !alive[v] ||
          !LinksBack(links, v, u)) {
        continue;
      }
      if (depth[v] < 0) {
        depth[v] = next;
        parent[v] = u;
        queue.push_back(v);
      } else if (BetterParent(u, parent[v], favor)) {
        parent[v] = u;
      }
    }
  }
  return RoutingTree(sink, std::move(parent), std::move(depth));
}

NodeId RoutingTree::BestParent(const LinkModel& links, NodeId v,
                               const std::vector<bool>* favor) const {
  const int d = depth_[v];
  if (d <= 0) return kInvalidNode;
  NodeId best = kInvalidNode;
  for (const NodeId u : links.Reachable(v)) {
    if (depth_[u] != d - 1 || !LinksBack(links, u, v)) continue;
    if (best == kInvalidNode || BetterParent(u, best, favor)) best = u;
  }
  return best;
}

void RoutingTree::Repair(const LinkModel& links, const std::vector<bool>& alive,
                         std::span<const NodeId> changed,
                         std::span<const NodeId> died,
                         const std::vector<bool>* favor,
                         RepairScratch* scratch) {
  const size_t n = parent_.size();
  SNAPQ_CHECK_EQ(links.num_nodes(), n);
  SNAPQ_CHECK_EQ(alive.size(), n);
  if (!alive[sink_]) {
    std::fill(parent_.begin(), parent_.end(), kInvalidNode);
    std::fill(depth_.begin(), depth_.end(), -1);
    return;
  }
  RepairScratch& s = *scratch;
  if (s.mark.size() != n) s.mark.assign(n, 0);
  s.raised.clear();
  s.moved.clear();

  constexpr uint8_t kQueued = 1;    // waiting in a raise bucket
  constexpr uint8_t kSeed = 2;      // a live changed node, not yet seeded
  constexpr uint8_t kReparent = 4;  // parent to recompute from its row
  constexpr uint8_t kMoved = 8;     // listed in s.moved
  // Sets `bit` on v; false when it was already set.
  const auto mark = [&](NodeId v, uint8_t bit) {
    uint8_t& m = s.mark[v];
    if ((m & bit) != 0) return false;
    if (m == 0) s.marked.push_back(v);
    m = static_cast<uint8_t>(m | bit);
    return true;
  };
  const auto push = [&](NodeId v, int d) {
    const auto k = static_cast<size_t>(d);
    if (s.buckets.size() <= k) s.buckets.resize(k + 1);
    s.buckets[k].push_back(v);
  };
  const auto queue_raise = [&](NodeId v) {
    if (mark(v, kQueued)) push(v, depth_[v]);
  };
  const auto in_tree = [&](NodeId v) { return depth_[v] > 0; };
  const auto set_depth = [&](NodeId v, int d) {
    if (mark(v, kMoved)) s.moved.push_back({v, depth_[v]});
    depth_[v] = d;
  };

  // The dead leave the tree; their neighbours may have lost their support.
  for (const NodeId x : died) {
    if (depth_[x] < 0) continue;
    set_depth(x, -1);
    parent_[x] = kInvalidNode;
    ForEachTwoWay(links, x, in_tree, queue_raise);
  }
  // So may nodes whose links changed.
  for (const NodeId v : changed) {
    if (!alive[v] || !mark(v, kSeed)) continue;
    mark(v, kReparent);
    if (in_tree(v)) queue_raise(v);
  }

  // Raise: in increasing depth, a node with no two-way neighbour one layer
  // up leaves its layer (depth -1 for now), and queues the neighbours it
  // supported. Only the raised change depth, so each layer's checks see
  // the final state of the layer above.
  for (size_t k = 1; k < s.buckets.size(); ++k) {
    const int d = static_cast<int>(k);
    for (size_t i = 0; i < s.buckets[k].size(); ++i) {
      const NodeId v = s.buckets[k][i];
      if (depth_[v] != d) continue;
      // Most nodes keep their parent: check it before the row.
      const NodeId p = parent_[v];
      bool supported = p != kInvalidNode && depth_[p] == d - 1 &&
                       links.CanReach(v, p) && LinksBack(links, p, v);
      for (const NodeId u : links.Reachable(v)) {
        if (supported) break;
        supported = depth_[u] == d - 1 && LinksBack(links, u, v);
      }
      if (supported) continue;
      set_depth(v, -1);
      s.raised.push_back(v);
      ForEachTwoWay(
          links, v, [&](NodeId w) { return depth_[w] == d + 1; }, queue_raise);
    }
    s.buckets[k].clear();
  }

  // Lower: every depth left is a real path length, so a bucketed BFS from
  // the changed nodes (whose new links may shorten paths) and from the
  // border of the raised set settles the hop distances exactly.
  size_t lo = std::numeric_limits<size_t>::max();
  const auto seed = [&](NodeId v) {
    push(v, depth_[v]);
    lo = std::min(lo, static_cast<size_t>(depth_[v]));
  };
  for (const NodeId v : changed) {
    if ((s.mark[v] & kSeed) == 0) continue;
    s.mark[v] = static_cast<uint8_t>(s.mark[v] & ~kSeed);
    if (depth_[v] >= 0) seed(v);
  }
  for (const NodeId v : s.raised) {
    int best = -1;
    ForEachTwoWay(
        links, v,
        [&](NodeId u) {
          return depth_[u] >= 0 && (best < 0 || depth_[u] + 1 < best);
        },
        [&](NodeId u) { best = depth_[u] + 1; });
    if (best >= 0) {
      set_depth(v, best);
      seed(v);
    }
  }
  for (size_t k = lo; k < s.buckets.size(); ++k) {
    const int next = static_cast<int>(k) + 1;
    for (size_t i = 0; i < s.buckets[k].size(); ++i) {
      const NodeId v = s.buckets[k][i];
      if (depth_[v] != static_cast<int>(k)) continue;  // lowered since
      ForEachTwoWay(
          links, v,
          [&](NodeId w) {
            return (depth_[w] < 0 || depth_[w] > next) && alive[w];
          },
          [&](NodeId w) {
            set_depth(w, next);
            push(w, next);
          });
    }
    s.buckets[k].clear();
  }

  // Parents: a node's choice reads its row, its depth and its
  // neighbours' depths. A node whose row or depth changed picks again from
  // its row; so does one whose parent left the layer above it. A node that
  // only gained candidates (a neighbour entered the layer above) compares
  // them with the parent it has.
  for (const RepairScratch::Moved& m : s.moved) {
    if (depth_[m.node] != m.old_depth) mark(m.node, kReparent);
  }
  for (const RepairScratch::Moved& m : s.moved) {
    const NodeId u = m.node;
    if (depth_[u] == m.old_depth || m.old_depth < 0) continue;
    // A child whose link to u changed has its row listed in `changed`,
    // so the row needs no distance test here.
    for (const NodeId w : links.Reachable(u)) {
      if (parent_[w] == u) mark(w, kReparent);
    }
  }
  for (const RepairScratch::Moved& m : s.moved) {
    const NodeId u = m.node;
    const int d = depth_[u];
    if (d == m.old_depth || d < 0) continue;
    ForEachTwoWay(
        links, u,
        [&](NodeId w) {
          return depth_[w] == d + 1 && (s.mark[w] & kReparent) == 0 &&
                 (parent_[w] == kInvalidNode ||
                  BetterParent(u, parent_[w], favor));
        },
        [&](NodeId w) { parent_[w] = u; });
  }
  for (const NodeId v : s.marked) {
    if ((s.mark[v] & kReparent) != 0) parent_[v] = BestParent(links, v, favor);
    s.mark[v] = 0;
  }
  s.marked.clear();
}

size_t RoutingTree::CountReachable() const {
  size_t count = 0;
  for (const int d : depth_) {
    if (d >= 0) ++count;
  }
  return count;
}

int RoutingTree::MaxDepth() const {
  int max_depth = 0;
  for (const int d : depth_) max_depth = std::max(max_depth, d);
  return max_depth;
}

}  // namespace snapq
