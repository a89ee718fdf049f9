#include "query/routing_tree.h"

#include <algorithm>

#include "common/check.h"

namespace snapq {

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

  // BFS layer by layer. Within a layer, candidate parents are considered in
  // (favored-first, then ascending-id) order so parent choice is
  // deterministic and optionally biased toward representatives.
  depth[sink] = 0;
  std::vector<NodeId> layer{sink};
  while (!layer.empty()) {
    std::vector<NodeId> ordered;
    ordered.reserve(layer.size());
    if (favor != nullptr) {
      for (NodeId u : layer) {
        if ((*favor)[u]) ordered.push_back(u);
      }
      for (NodeId u : layer) {
        if (!(*favor)[u]) ordered.push_back(u);
      }
    } else {
      ordered = layer;
    }
    std::vector<NodeId> next;
    for (NodeId u : ordered) {
      // A usable tree edge needs both directions: u -> v for dissemination,
      // v -> u for the reply.
      for (NodeId v : links.Reachable(u)) {
        if (!alive[v] || depth[v] >= 0 || !links.CanReach(v, u)) continue;
        depth[v] = depth[u] + 1;
        parent[v] = u;
        next.push_back(v);
      }
    }
    // Keep ascending-id order within the next layer for determinism.
    std::sort(next.begin(), next.end());
    layer = std::move(next);
  }
  return RoutingTree(sink, std::move(parent), std::move(depth));
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
