#include "obs/topo.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "obs/json.h"

namespace snapq::obs {

// ---------------------------------------------------------------------------
// LinkObserver

namespace {

/// Next power of two >= n (and >= 8, so probing always has headroom).
size_t NextPow2(size_t n) {
  size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

/// Fibonacci hash of the packed link key into a `mask + 1`-sized table.
size_t HashKey(uint64_t key, size_t mask) {
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
}

}  // namespace

LinkObserver::LinkObserver(size_t num_nodes, size_t max_links)
    : num_nodes_(num_nodes) {
  const size_t all_pairs =
      num_nodes <= 1 ? 1 : num_nodes * (num_nodes - 1);
  max_links_ = max_links != 0 ? max_links
                              : std::min(all_pairs, kDefaultMaxLinks);
  // Twice the capacity keeps the open-addressing load factor <= 0.5, and
  // the capacity cap guarantees an empty slot terminates every probe.
  const size_t table_size = NextPow2(2 * max_links_);
  table_mask_ = table_size - 1;
  table_.resize(table_size);
}

size_t LinkObserver::CapacityFor(const LinkModel& links) {
  size_t directed_edges = 0;
  for (NodeId i = 0; i < links.num_nodes(); ++i) {
    directed_edges += links.Reachable(i).size();
  }
  return std::clamp<size_t>(directed_edges, 1, kDefaultMaxLinks);
}

LinkStats* LinkObserver::Touch(NodeId from, NodeId to, Time now) {
  const uint64_t key =
      static_cast<uint64_t>(from) * static_cast<uint64_t>(num_nodes_) + to;
  size_t slot = HashKey(key, table_mask_);
  while (true) {
    LinkStats& entry = table_[slot];
    if (entry.from == from && entry.to == to) {
      entry.last_activity = now;
      return &entry;
    }
    if (entry.from == kInvalidNode) {
      if (num_links_ >= max_links_) {
        ++dropped_;
        return nullptr;
      }
      entry.from = from;
      entry.to = to;
      entry.last_activity = now;
      ++num_links_;
      return &entry;
    }
    slot = (slot + 1) & table_mask_;
  }
}

void LinkObserver::Record(NodeId from, NodeId to, RadioEventKind kind,
                          Time now) {
  LinkStats* link = Touch(from, to, now);
  if (link == nullptr) return;
  switch (kind) {
    case RadioEventKind::kDeliver:
      ++link->deliveries;
      link->ewma_delivery =
          link->ewma_delivery < 0.0
              ? 1.0
              : (1.0 - kLinkEwmaAlpha) * link->ewma_delivery + kLinkEwmaAlpha;
      break;
    case RadioEventKind::kLoss:
      ++link->losses;
      link->ewma_delivery = link->ewma_delivery < 0.0
                                ? 0.0
                                : (1.0 - kLinkEwmaAlpha) * link->ewma_delivery;
      break;
    case RadioEventKind::kSnoop:
      ++link->snoops;
      break;
    case RadioEventKind::kSend:  // not a receiver outcome
      break;
  }
}

const LinkStats* LinkObserver::Find(NodeId from, NodeId to) const {
  const uint64_t key =
      static_cast<uint64_t>(from) * static_cast<uint64_t>(num_nodes_) + to;
  size_t slot = HashKey(key, table_mask_);
  while (true) {
    const LinkStats& entry = table_[slot];
    if (entry.from == from && entry.to == to) return &entry;
    if (entry.from == kInvalidNode) return nullptr;
    slot = (slot + 1) & table_mask_;
  }
}

std::vector<LinkStats> LinkObserver::SortedLinks() const {
  std::vector<LinkStats> out;
  out.reserve(num_links_);
  for (const LinkStats& entry : table_) {
    if (entry.from != kInvalidNode) out.push_back(entry);
  }
  std::sort(out.begin(), out.end(),
            [](const LinkStats& a, const LinkStats& b) {
              return a.from != b.from ? a.from < b.from : a.to < b.to;
            });
  return out;
}

size_t LinkObserver::CountWeakLinks(double threshold,
                                    uint64_t min_attempts) const {
  size_t weak = 0;
  for (const LinkStats& entry : table_) {
    if (entry.from == kInvalidNode) continue;
    if (entry.attempts() < min_attempts) continue;
    if (entry.ewma_delivery >= 0.0 && entry.ewma_delivery < threshold) {
      ++weak;
    }
  }
  return weak;
}

// ---------------------------------------------------------------------------
// ClusterView

void ClusterView::Resize(size_t n) {
  alive.assign(n, 1);
  is_rep.assign(n, 0);
  representative.resize(n);
  for (size_t i = 0; i < n; ++i) representative[i] = static_cast<NodeId>(i);
}

// ---------------------------------------------------------------------------
// AnalyzeTopology

namespace {

/// Undirected closure over live nodes: u~v iff either direction is in
/// range (the relation LinkModel::IsConnected uses). Adjacency lists are
/// sorted and deduplicated, so the DFS below sees each edge exactly once
/// per endpoint.
std::vector<std::vector<NodeId>> BuildLiveAdjacency(
    const LinkModel& links, const std::vector<uint8_t>& alive) {
  const size_t n = links.num_nodes();
  std::vector<std::vector<NodeId>> adj(n);
  for (NodeId u = 0; u < n; ++u) {
    if (!alive[u]) continue;
    for (NodeId v : links.Reachable(u)) {
      if (!alive[v]) continue;
      adj[u].push_back(v);
      adj[v].push_back(u);
    }
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return adj;
}

/// One iterative Tarjan DFS over the undirected graph: fills the sorted
/// bridge and articulation lists. Iterative so 100k-node components don't
/// overflow the stack (ROADMAP item 2's scale).
void FindCutStructure(const std::vector<std::vector<NodeId>>& adj,
                      const std::vector<uint8_t>& alive,
                      std::vector<std::pair<NodeId, NodeId>>* bridges,
                      std::vector<NodeId>* articulation) {
  const size_t n = adj.size();
  std::vector<int64_t> disc(n, -1);
  std::vector<int64_t> low(n, 0);
  std::vector<uint8_t> is_art(n, 0);
  struct Frame {
    NodeId u;
    NodeId parent;
    size_t next;
  };
  std::vector<Frame> stack;
  int64_t timer = 0;
  for (NodeId root = 0; root < n; ++root) {
    if (!alive[root] || disc[root] >= 0) continue;
    size_t root_children = 0;
    disc[root] = low[root] = timer++;
    stack.push_back({root, kInvalidNode, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next < adj[frame.u].size()) {
        const NodeId v = adj[frame.u][frame.next++];
        if (v == frame.parent) continue;
        if (disc[v] < 0) {
          disc[v] = low[v] = timer++;
          if (frame.u == root) ++root_children;
          stack.push_back({v, frame.u, 0});
        } else {
          low[frame.u] = std::min(low[frame.u], disc[v]);
        }
      } else {
        const NodeId u = frame.u;
        stack.pop_back();
        if (stack.empty()) continue;
        Frame& parent = stack.back();
        low[parent.u] = std::min(low[parent.u], low[u]);
        if (low[u] > disc[parent.u]) {
          bridges->emplace_back(std::min(parent.u, u),
                                std::max(parent.u, u));
        }
        if (parent.u != root && low[u] >= disc[parent.u]) {
          is_art[parent.u] = 1;
        }
      }
    }
    if (root_children >= 2) is_art[root] = 1;
  }
  std::sort(bridges->begin(), bridges->end());
  for (NodeId i = 0; i < n; ++i) {
    if (is_art[i]) articulation->push_back(i);
  }
}

}  // namespace

TopologySnapshot AnalyzeTopology(const LinkModel& links,
                                 const ClusterView& view, Time now) {
  const size_t n = links.num_nodes();
  TopologySnapshot snap;
  snap.t = now;
  snap.num_nodes = n;

  // A partially-filled view defaults to "every node alive, nothing
  // clustered" so bare structural analyses need no protocol state.
  snap.alive = view.alive.size() == n ? view.alive
                                      : std::vector<uint8_t>(n, 1);
  if (view.representative.size() == n) {
    snap.representative = view.representative;
  } else {
    snap.representative.resize(n);
    for (NodeId i = 0; i < n; ++i) snap.representative[i] = i;
  }
  const std::vector<uint8_t> no_reps(n, 0);
  const std::vector<uint8_t>& is_rep =
      view.is_rep.size() == n ? view.is_rep : no_reps;

  const std::vector<std::vector<NodeId>> adj =
      BuildLiveAdjacency(links, snap.alive);

  // Degrees / isolation.
  snap.degree.assign(n, 0);
  uint64_t degree_sum = 0;
  for (NodeId i = 0; i < n; ++i) {
    if (!snap.alive[i]) continue;
    ++snap.num_live;
    snap.degree[i] = static_cast<uint32_t>(adj[i].size());
    degree_sum += snap.degree[i];
    snap.max_degree = std::max<size_t>(snap.max_degree, snap.degree[i]);
    if (snap.degree[i] == 0) ++snap.isolated;
  }
  snap.avg_degree = snap.num_live == 0
                        ? 0.0
                        : static_cast<double>(degree_sum) /
                              static_cast<double>(snap.num_live);

  // Connected components (ids ascend with their lowest member id).
  snap.component.assign(n, -1);
  std::vector<NodeId> queue;
  queue.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    if (!snap.alive[i] || snap.component[i] >= 0) continue;
    const int32_t id = static_cast<int32_t>(snap.partitions++);
    snap.component[i] = id;
    queue.clear();
    queue.push_back(i);
    for (size_t head = 0; head < queue.size(); ++head) {
      for (NodeId next : adj[queue[head]]) {
        if (snap.component[next] >= 0) continue;
        snap.component[next] = id;
        queue.push_back(next);
      }
    }
  }

  FindCutStructure(adj, snap.alive, &snap.bridges, &snap.articulation);

  // Per-cluster size, radius and BFS depth in O(n + E + Σ cluster-local
  // BFS). One pass tallies each live rep's other members and their
  // farthest euclidean distance. Each rep's BFS then stops as soon as it
  // has reached every member: BFS distances are final at discovery, and a
  // rep hears its members directly, so the search rarely leaves their
  // neighbourhood. Only a broken cluster (a member the rep cannot reach)
  // walks its whole component. A stamp array avoids re-clearing the
  // distance buffer per cluster.
  const auto heads_cluster = [&](NodeId r) {
    return snap.alive[r] && is_rep[r];
  };
  std::vector<uint32_t> other_members(n, 0);
  std::vector<double> radius(n, 0.0);
  for (NodeId j = 0; j < n; ++j) {
    const NodeId rep = snap.representative[j];
    if (!snap.alive[j] || rep == j || rep >= n || !heads_cluster(rep)) {
      continue;
    }
    ++other_members[rep];
    radius[rep] = std::max(
        radius[rep], Distance(links.position(rep), links.position(j)));
  }
  std::vector<int64_t> dist(n, -1);
  std::vector<uint32_t> stamp(n, 0);
  uint32_t current_stamp = 0;
  for (NodeId rep = 0; rep < n; ++rep) {
    if (!heads_cluster(rep)) continue;
    ClusterTopoStats stats;
    stats.rep = rep;
    stats.size = uint64_t{1} + other_members[rep];
    stats.radius = radius[rep];
    uint32_t unreached = other_members[rep];
    ++current_stamp;
    dist[rep] = 0;
    stamp[rep] = current_stamp;
    queue.clear();
    queue.push_back(rep);
    for (size_t head = 0; head < queue.size() && unreached > 0; ++head) {
      const NodeId u = queue[head];
      for (NodeId next : adj[u]) {
        if (stamp[next] == current_stamp) continue;
        stamp[next] = current_stamp;
        dist[next] = dist[u] + 1;
        queue.push_back(next);
        if (snap.representative[next] != rep) continue;
        stats.depth = std::max(stats.depth, dist[next]);
        if (--unreached == 0) break;
      }
    }
    if (unreached > 0) stats.depth = -1;  // a member the rep cannot reach
    snap.clusters.push_back(stats);
  }
  return snap;
}

// ---------------------------------------------------------------------------
// ChurnTracker

namespace {

enum ChurnSlot : size_t {
  kChurnTenureP50 = 0,
  kChurnFlapRate,
  kChurnElectionRate,
};

std::vector<std::string> ChurnGaugeNames() {
  return {"churn.rep_tenure_p50", "churn.flap_rate", "churn.election_rate"};
}

}  // namespace

ChurnTracker::ChurnTracker(size_t num_nodes, size_t grid,
                           MetricRegistry* registry)
    : num_nodes_(num_nodes),
      grid_(std::max<size_t>(1, grid)),
      gauges_(registry, ChurnGaugeNames()),
      flaps_counter_(registry->GetCounter("churn.flaps")),
      elections_counter_(registry->GetCounter("churn.elections")),
      tenures_counter_(registry->GetCounter("churn.tenures_completed")),
      prev_rep_(num_nodes, kInvalidNode),
      prev_is_rep_(num_nodes, 0),
      active_since_(num_nodes, -1),
      tenure_scratch_(num_nodes, 0.0) {
  region_counters_.reserve(grid_ * grid_);
  for (size_t cell = 0; cell < grid_ * grid_; ++cell) {
    region_counters_.push_back(registry->GetCounter(
        "churn.region_elections", static_cast<NodeId>(cell)));
  }
}

size_t ChurnTracker::RegionOf(const Point& p) const {
  const double w = bounds_.Width() > 0.0 ? bounds_.Width() : 1.0;
  const double h = bounds_.Height() > 0.0 ? bounds_.Height() : 1.0;
  const double gx = (p.x - bounds_.min_x) / w * static_cast<double>(grid_);
  const double gy = (p.y - bounds_.min_y) / h * static_cast<double>(grid_);
  const size_t cx = std::min(
      grid_ - 1, static_cast<size_t>(std::max(0.0, gx)));
  const size_t cy = std::min(
      grid_ - 1, static_cast<size_t>(std::max(0.0, gy)));
  return cy * grid_ + cx;
}

uint64_t ChurnTracker::RegionElections(size_t cell) const {
  return region_counters_[cell]->value();
}

void ChurnTracker::Observe(const ClusterView& view, const LinkModel& links,
                           Time now) {
  SNAPQ_CHECK_EQ(view.num_nodes(), num_nodes_);
  if (first_sweep_ && num_nodes_ > 0) {
    // Latch the deployment's bounding box for region bucketing. Mobility
    // can wander outside it; RegionOf clamps to the edge cells.
    bounds_ = Rect{links.position(0).x, links.position(0).y,
                   links.position(0).x, links.position(0).y};
    for (NodeId i = 1; i < num_nodes_; ++i) {
      const Point& p = links.position(i);
      bounds_.min_x = std::min(bounds_.min_x, p.x);
      bounds_.min_y = std::min(bounds_.min_y, p.y);
      bounds_.max_x = std::max(bounds_.max_x, p.x);
      bounds_.max_y = std::max(bounds_.max_y, p.y);
    }
  }

  uint64_t sweep_flaps = 0;
  uint64_t sweep_elections = 0;
  for (NodeId i = 0; i < num_nodes_; ++i) {
    const bool alive = view.alive[i] != 0;
    const bool holds_role = alive && view.is_rep[i] != 0;

    if (alive && prev_rep_[i] != kInvalidNode &&
        view.representative[i] != prev_rep_[i]) {
      ++sweep_flaps;
    }
    if (holds_role && !prev_is_rep_[i]) {
      ++sweep_elections;
      region_counters_[RegionOf(links.position(i))]->Inc();
      active_since_[i] = now;
    }
    if (prev_is_rep_[i] && !holds_role) {
      if (active_since_[i] >= 0) {
        tenure_hist_.Observe(static_cast<double>(now - active_since_[i]));
        ++completed_;
        tenures_counter_->Inc();
      }
      active_since_[i] = -1;
    }

    prev_is_rep_[i] = holds_role ? 1 : 0;
    prev_rep_[i] = alive ? view.representative[i] : kInvalidNode;
  }
  first_sweep_ = false;

  flaps_ += sweep_flaps;
  elections_ += sweep_elections;
  flap_rate_ = static_cast<double>(sweep_flaps);
  election_rate_ = static_cast<double>(sweep_elections);
  flaps_counter_->Inc(sweep_flaps);
  elections_counter_->Inc(sweep_elections);

  UpdateTenureP50(now);
  gauges_.Set(kChurnTenureP50, tenure_p50_);
  gauges_.Set(kChurnFlapRate, flap_rate_);
  gauges_.Set(kChurnElectionRate, election_rate_);
}

void ChurnTracker::UpdateTenureP50(Time now) {
  if (completed_ > 0) {
    tenure_p50_ = tenure_hist_.Percentile(50.0);
    return;
  }
  // Nothing completed yet: the median ongoing tenure keeps the gauge
  // informative from the first sweep after an election.
  size_t ongoing = 0;
  for (NodeId i = 0; i < num_nodes_; ++i) {
    if (active_since_[i] >= 0) {
      tenure_scratch_[ongoing++] = static_cast<double>(now - active_since_[i]);
    }
  }
  if (ongoing == 0) {
    tenure_p50_ = 0.0;
    return;
  }
  const size_t mid = ongoing / 2;
  std::nth_element(tenure_scratch_.begin(),
                   tenure_scratch_.begin() + static_cast<std::ptrdiff_t>(mid),
                   tenure_scratch_.begin() + static_cast<std::ptrdiff_t>(ongoing));
  tenure_p50_ = tenure_scratch_[mid];
}

// ---------------------------------------------------------------------------
// TopologyMonitor

namespace {

enum TopoSlot : size_t {
  kTopoPartitions = 0,
  kTopoBridges,
  kTopoArticulation,
  kTopoAvgDegree,
  kTopoIsolated,
  kTopoWeakLinks,
  kTopoLiveNodes,
  kTopoLinksObserved,
};

std::vector<std::string> TopoGaugeNames() {
  return {"topo.partitions",     "topo.bridges",    "topo.articulation_nodes",
          "topo.avg_degree",     "topo.isolated_nodes", "topo.weak_links",
          "topo.live_nodes",     "topo.links_observed"};
}

}  // namespace

TopologyMonitor::TopologyMonitor(const TopologyConfig& config,
                                 const LinkModel& links,
                                 MetricRegistry* registry,
                                 EventJournal* journal)
    : config_(config),
      observer_(links.num_nodes(), config.max_links != 0
                                       ? config.max_links
                                       : LinkObserver::CapacityFor(links)),
      churn_(links.num_nodes(), kChurnGrid, registry),
      gauges_(registry, TopoGaugeNames()),
      samples_counter_(registry->GetCounter("topo.samples")),
      journal_(journal) {
  view_.Resize(links.num_nodes());
}

const TopologySnapshot& TopologyMonitor::Sample(const LinkModel& links,
                                                Time now) {
  churn_.Observe(view_, links, now);
  snapshot_ = AnalyzeTopology(links, view_, now);
  snapshot_.weak_links =
      observer_.CountWeakLinks(kWeakLinkThreshold, kWeakLinkMinAttempts);
  ++num_samples_;

  gauges_.Set(kTopoPartitions, static_cast<double>(snapshot_.partitions));
  gauges_.Set(kTopoBridges, static_cast<double>(snapshot_.bridges.size()));
  gauges_.Set(kTopoArticulation,
              static_cast<double>(snapshot_.articulation.size()));
  gauges_.Set(kTopoAvgDegree, snapshot_.avg_degree);
  gauges_.Set(kTopoIsolated, static_cast<double>(snapshot_.isolated));
  gauges_.Set(kTopoWeakLinks, static_cast<double>(snapshot_.weak_links));
  gauges_.Set(kTopoLiveNodes, static_cast<double>(snapshot_.num_live));
  gauges_.Set(kTopoLinksObserved,
              static_cast<double>(observer_.num_links()));
  samples_counter_->Inc();

  if (journal_ != nullptr) {
    journal_->Emit("topo.sample", now, [&](JournalEvent& e) {
      e.Int("partitions", static_cast<int64_t>(snapshot_.partitions))
          .Int("bridges", static_cast<int64_t>(snapshot_.bridges.size()))
          .Int("articulation",
               static_cast<int64_t>(snapshot_.articulation.size()))
          .Int("isolated", static_cast<int64_t>(snapshot_.isolated))
          .Int("live", static_cast<int64_t>(snapshot_.num_live))
          .Int("weak_links", static_cast<int64_t>(snapshot_.weak_links))
          .Num("avg_degree", snapshot_.avg_degree)
          .Num("flap_rate", churn_.flap_rate())
          .Num("election_rate", churn_.election_rate())
          .Num("tenure_p50", churn_.tenure_p50());
    });
  }
  return snapshot_;
}

std::string TopologyMonitor::ToString() const {
  if (num_samples_ == 0) return "topology: no samples yet\n";
  std::ostringstream out;
  const TopologySnapshot& s = snapshot_;
  out << StrFormat(
      "topology @t=%lld (%llu samples)\n",
      static_cast<long long>(s.t),
      static_cast<unsigned long long>(num_samples_));
  out << StrFormat(
      "  partitions    %zu (%zu live / %zu nodes, %zu isolated)\n",
      s.partitions, s.num_live, s.num_nodes, s.isolated);
  out << StrFormat(
      "  degree        avg %.1f, max %zu\n", s.avg_degree, s.max_degree);
  out << StrFormat(
      "  cut structure %zu bridges, %zu articulation nodes\n",
      s.bridges.size(), s.articulation.size());
  out << StrFormat(
      "  links         %zu observed (%llu dropped), %zu weak (ewma < %.2f)\n",
      observer_.num_links(),
      static_cast<unsigned long long>(observer_.dropped_records()),
      s.weak_links, kWeakLinkThreshold);
  out << StrFormat(
      "  churn         flaps %.0f/sweep (%llu total), elections %.0f/sweep "
      "(%llu total), tenure p50 %.0f ticks\n",
      churn_.flap_rate(), static_cast<unsigned long long>(churn_.flaps_total()),
      churn_.election_rate(),
      static_cast<unsigned long long>(churn_.elections_total()),
      churn_.tenure_p50());

  if (!s.clusters.empty()) {
    TablePrinter clusters({"rep", "size", "radius", "depth"});
    for (const ClusterTopoStats& c : s.clusters) {
      clusters.AddRow({StrFormat("%u", c.rep),
                       StrFormat("%llu", static_cast<unsigned long long>(c.size)),
                       TablePrinter::Num(c.radius),
                       c.depth < 0 ? std::string("broken")
                                   : StrFormat("%lld",
                                               static_cast<long long>(c.depth))});
    }
    clusters.Print(out);
  }

  // The weakest observed links, worst first.
  std::vector<LinkStats> links = observer_.SortedLinks();
  std::stable_sort(links.begin(), links.end(),
                   [](const LinkStats& a, const LinkStats& b) {
                     return a.ewma_delivery < b.ewma_delivery;
                   });
  size_t shown = 0;
  for (const LinkStats& l : links) {
    if (l.attempts() < kWeakLinkMinAttempts) continue;
    if (l.ewma_delivery < 0.0 || l.ewma_delivery >= kWeakLinkThreshold) {
      continue;
    }
    if (shown == 0) out << "weakest links (ewma < threshold):\n";
    if (++shown > 5) break;
    out << StrFormat(
        "  %u -> %u  ewma %.2f  (%llu ok, %llu lost, %llu snooped)\n",
        l.from, l.to, l.ewma_delivery,
        static_cast<unsigned long long>(l.deliveries),
        static_cast<unsigned long long>(l.losses),
        static_cast<unsigned long long>(l.snoops));
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// TopoMapToJson

std::string TopoMapToJson(const TopologySnapshot& snap,
                          const std::vector<Point>& positions,
                          const std::vector<LinkStats>& links,
                          const TopoMapMeta& meta) {
  SNAPQ_CHECK_EQ(positions.size(), snap.num_nodes);
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema_version\": " << kTopoMapSchemaVersion << ",\n";
  out << "  \"kind\": \"snapq-topo\",\n";
  out << "  \"benchmark\": \"" << JsonEscape(meta.benchmark) << "\",\n";
  out << "  \"git_sha\": \"" << JsonEscape(meta.git_sha) << "\",\n";
  out << "  \"quick\": " << (meta.quick ? "true" : "false") << ",\n";
  out << "  \"t\": " << meta.t << ",\n";
  out << "  \"num_nodes\": " << snap.num_nodes << ",\n";
  out << "  \"live\": " << snap.num_live << ",\n";

  out << "  \"summary\": {\"partitions\": " << snap.partitions
      << ", \"bridges\": " << snap.bridges.size()
      << ", \"articulation_nodes\": " << snap.articulation.size()
      << ", \"isolated\": " << snap.isolated
      << ", \"avg_degree\": " << JsonNumber(snap.avg_degree)
      << ", \"max_degree\": " << snap.max_degree
      << ", \"weak_links\": " << snap.weak_links
      << ", \"links_observed\": " << links.size() << "},\n";

  out << "  \"clusters\": [";
  for (size_t i = 0; i < snap.clusters.size(); ++i) {
    const ClusterTopoStats& c = snap.clusters[i];
    if (i != 0) out << ", ";
    out << "{\"rep\": " << c.rep << ", \"size\": " << c.size
        << ", \"radius\": " << JsonNumber(c.radius)
        << ", \"depth\": " << c.depth << "}";
  }
  out << "],\n";

  out << "  \"bridges\": [";
  for (size_t i = 0; i < snap.bridges.size(); ++i) {
    if (i != 0) out << ", ";
    out << "[" << snap.bridges[i].first << ", " << snap.bridges[i].second
        << "]";
  }
  out << "],\n";

  out << "  \"articulation\": [";
  for (size_t i = 0; i < snap.articulation.size(); ++i) {
    if (i != 0) out << ", ";
    out << snap.articulation[i];
  }
  out << "],\n";

  out << "  \"extras\": {";
  for (size_t i = 0; i < meta.extras.size(); ++i) {
    if (i != 0) out << ", ";
    out << "\"" << JsonEscape(meta.extras[i].first)
        << "\": " << JsonNumber(meta.extras[i].second);
  }
  out << "},\n";

  out << "  \"nodes\": [\n";
  for (NodeId i = 0; i < snap.num_nodes; ++i) {
    out << "    {\"id\": " << i << ", \"x\": " << JsonNumber(positions[i].x)
        << ", \"y\": " << JsonNumber(positions[i].y) << ", \"alive\": "
        << (snap.alive[i] ? "true" : "false")
        << ", \"degree\": " << snap.degree[i]
        << ", \"component\": " << snap.component[i] << ", \"rep\": "
        << static_cast<int64_t>(snap.representative[i]) << "}"
        << (i + 1 < snap.num_nodes ? "," : "") << "\n";
  }
  out << "  ],\n";

  out << "  \"links\": [\n";
  for (size_t i = 0; i < links.size(); ++i) {
    const LinkStats& l = links[i];
    out << "    {\"from\": " << l.from << ", \"to\": " << l.to
        << ", \"deliveries\": " << l.deliveries
        << ", \"snoops\": " << l.snoops << ", \"losses\": " << l.losses
        << ", \"ewma\": " << JsonNumber(l.ewma_delivery)
        << ", \"last\": " << l.last_activity << "}"
        << (i + 1 < links.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace snapq::obs
