// Topology & churn observatory: the network-structure counterpart of the
// health monitor. The paper's economy rests on the radio graph — a
// representative answers for the nodes it can hear, so one severed or
// lossy link silently degrades snapshot coverage — yet nothing so far
// observed the graph itself. Three pieces close that gap:
//
//  * LinkObserver — fixed-memory per-directed-link statistics (deliveries,
//    snoops, losses, EWMA delivery ratio, last-activity tick) fed from the
//    simulator's one receiver-outcome helper (RecordOutcome). Cost model
//    (the repo's observability contract): with no observer attached that
//    helper pays one branch; with one attached each outcome is a
//    fixed-capacity open-addressing probe plus a handful of writes — ZERO
//    heap allocations either way (pinned by topo_alloc_test).
//
//  * AnalyzeTopology — a point-in-time TopologySnapshot combining
//    LinkModel reachability with liveness and cluster membership:
//    partition count (connected components of the undirected closure, the
//    same relation LinkModel::IsConnected uses), bridge links and
//    articulation nodes (aggregation single points of failure, via one
//    iterative Tarjan DFS), degree distribution, isolated-node count, and
//    per-cluster radius / BFS tree depth.
//
//  * ChurnTracker — sweep-differenced representation dynamics: how often
//    nodes change representative (flaps), how often new representatives
//    appear (elections, bucketed into a spatial grid for per-region
//    rates), and how long representatives hold the role (tenure
//    histogram).
//
// TopologyMonitor owns all three and publishes through ordinary registry
// gauges —
//
//   topo.partitions          connected components among live nodes
//   topo.bridges             undirected edges whose loss splits a component
//   topo.articulation_nodes  nodes whose death splits a component
//   topo.avg_degree          mean undirected degree over live nodes
//   topo.isolated_nodes      live nodes with no live neighbor
//   topo.weak_links          observed links with EWMA delivery below
//                            kWeakLinkThreshold
//   topo.live_nodes          live-node count at the sample
//   topo.links_observed      distinct directed links seen by the observer
//   churn.rep_tenure_p50     median completed representative tenure (ticks;
//                            ongoing tenures stand in while none completed)
//   churn.flap_rate          nodes whose representative changed since the
//                            previous sweep
//   churn.election_rate      nodes that became representatives since the
//                            previous sweep
//
// — so the telemetry recorder, the SLO grammar ("topo.partitions value
// <= 1 for 20") and the flight-recorder blackbox pick them up with zero
// new plumbing. Each sample also emits one frozen-schema `topo.sample`
// journal event, and TopoMapToJson renders the schema-v1 `*.topo.json`
// sidecar consumed by tools/topo_report.py.
//
// Layering: obs depends on net (LinkModel, node ids) and common only. The
// snapshot/protocol layer never appears here — the api layer fills a plain
// ClusterView (alive / is-representative / representative-of) per sweep,
// mirroring snapshot/health_probe.h.
#ifndef SNAPQ_OBS_TOPO_H_
#define SNAPQ_OBS_TOPO_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/geometry.h"
#include "net/link_model.h"
#include "net/node_id.h"
#include "net/trace_context.h"
#include "obs/gauge_pack.h"
#include "obs/journal.h"
#include "obs/metric_registry.h"

namespace snapq::obs {

// ---------------------------------------------------------------------------
// LinkObserver

/// Observed statistics of one directed link. `attempts` are addressed
/// transmissions only (delivered + lost), matching the Metrics façade;
/// snoops are overheard copies and tracked separately. The EWMA delivery
/// ratio folds 1 (delivered) / 0 (lost) per addressed outcome with
/// kLinkEwmaAlpha; -1 until the first addressed outcome.
struct LinkStats {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  uint64_t deliveries = 0;
  uint64_t snoops = 0;
  uint64_t losses = 0;
  double ewma_delivery = -1.0;
  Time last_activity = -1;

  uint64_t attempts() const { return deliveries + losses; }
};

/// EWMA smoothing factor for the per-link delivery ratio: ~the last 20
/// outcomes dominate, so a link that turns lossy crosses a 0.5 weak-link
/// threshold within a handful of losses.
inline constexpr double kLinkEwmaAlpha = 0.1;

/// Fixed-memory per-directed-link observer. All storage (an open-
/// addressing hash table keyed by from*num_nodes+to, linear probing) is
/// allocated at construction; links beyond `max_links` are counted in
/// dropped_records() and otherwise ignored, so the message path never
/// allocates. Attach with Simulator::SetLinkObserver.
class LinkObserver {
 public:
  /// `max_links` caps distinct directed links tracked; 0 sizes
  /// automatically (every ordered pair, capped at kDefaultMaxLinks).
  explicit LinkObserver(size_t num_nodes, size_t max_links = 0);

  /// Auto-capacity cap: beyond this many directed links the tails are
  /// dropped (64k links ~ 6 MB of table).
  static constexpr size_t kDefaultMaxLinks = 65536;

  /// The capacity for a deployment: its directed edge count, capped at
  /// kDefaultMaxLinks, and never 0. Every record names a link the radio
  /// can carry (a Reachable(from) entry), so a static deployment never
  /// exceeds its edge count. A deployment that moves nodes does: each
  /// move brings links the table has not seen, so pass an explicit
  /// capacity for it (see TopologyConfig::max_links).
  static size_t CapacityFor(const LinkModel& links);

  // -- Hot path (one probe + a few writes; never allocates) ------------------

  /// One receiver outcome on the directed link: kDeliver, kSnoop or an
  /// addressed kLoss.
  void Record(NodeId from, NodeId to, RadioEventKind kind, Time now);

  // -- Reads -----------------------------------------------------------------

  size_t num_nodes() const { return num_nodes_; }
  /// Distinct directed links currently tracked.
  size_t num_links() const { return num_links_; }
  size_t capacity() const { return max_links_; }
  /// Record attempts discarded because the table was at capacity.
  uint64_t dropped_records() const { return dropped_; }

  /// The stats of one directed link, or nullptr when never observed.
  const LinkStats* Find(NodeId from, NodeId to) const;

  /// Every tracked link, sorted by (from, to) — the deterministic order
  /// the sidecar and reports use.
  std::vector<LinkStats> SortedLinks() const;

  /// Tracked links with at least `min_attempts` addressed outcomes and an
  /// EWMA delivery ratio below `threshold`.
  size_t CountWeakLinks(double threshold, uint64_t min_attempts) const;

 private:
  /// The link's slot, inserting on first touch; nullptr when the table is
  /// at capacity and the link is new.
  LinkStats* Touch(NodeId from, NodeId to, Time now);

  size_t num_nodes_;
  size_t max_links_;
  size_t table_mask_;  // table_.size() - 1 (power of two)
  std::vector<LinkStats> table_;
  size_t num_links_ = 0;
  uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// ClusterView — plain-data representation state, filled by the api layer.

struct ClusterView {
  std::vector<uint8_t> alive;
  /// Node currently holds the representative role (mode ACTIVE).
  std::vector<uint8_t> is_rep;
  /// The node each node is represented by (itself when unrepresented).
  std::vector<NodeId> representative;

  /// Resizes every vector to `n`; entries must be refilled per sweep.
  void Resize(size_t n);
  size_t num_nodes() const { return alive.size(); }
};

// ---------------------------------------------------------------------------
// TopologySnapshot

/// Per-cluster structure: the representative, its member count (including
/// itself), the maximum euclidean rep->member distance, and the maximum
/// BFS hop depth from the rep to a member over the live undirected graph
/// (-1 when some member is unreachable — a broken cluster).
struct ClusterTopoStats {
  NodeId rep = kInvalidNode;
  uint64_t size = 0;
  double radius = 0.0;
  int64_t depth = 0;
};

/// One point-in-time structural analysis. Self-contained (carries the
/// per-node detail) so the sidecar can be rendered from it alone.
struct TopologySnapshot {
  Time t = 0;
  size_t num_nodes = 0;
  size_t num_live = 0;
  size_t partitions = 0;
  size_t isolated = 0;
  double avg_degree = 0.0;
  size_t max_degree = 0;
  /// Filled by the monitor from observer data (0 in bare analyses).
  size_t weak_links = 0;

  /// Per node: undirected degree among live nodes (0 when dead).
  std::vector<uint32_t> degree;
  /// Per node: connected-component id (-1 when dead). Component ids are
  /// assigned in ascending order of their lowest member id.
  std::vector<int32_t> component;
  /// Per node: the representative recorded in the analyzed ClusterView.
  std::vector<NodeId> representative;
  std::vector<uint8_t> alive;
  /// Undirected bridge edges (u < v), sorted.
  std::vector<std::pair<NodeId, NodeId>> bridges;
  /// Articulation nodes, sorted.
  std::vector<NodeId> articulation;
  /// One entry per live representative, sorted by rep id.
  std::vector<ClusterTopoStats> clusters;
};

/// Analyzes the live undirected closure of `links` (edge u~v iff either
/// direction is in range — the relation LinkModel::IsConnected uses)
/// under the liveness and membership recorded in `view`.
TopologySnapshot AnalyzeTopology(const LinkModel& links,
                                 const ClusterView& view, Time now);

// ---------------------------------------------------------------------------
// ChurnTracker

/// Sweep-differenced representation dynamics. Feed it the same ClusterView
/// the analyzer consumes, once per telemetry sample:
///
///   flap       a live node's representative differs from the previous
///              sweep's;
///   election   a live node holds the representative role it did not hold
///              the previous sweep (bucketed into a grid x grid spatial
///              region for per-region rates);
///   tenure     ticks from a node gaining the role to losing it (or
///              dying), recorded in a log-bucketed histogram.
///
/// Registry instruments: churn.flap_rate / churn.election_rate /
/// churn.rep_tenure_p50 gauges, churn.flaps / churn.elections /
/// churn.tenures_completed counters, and one churn.region_elections
/// counter per grid cell (labeled {node=<cell>}, row-major). Observe is
/// allocation-free after construction.
class ChurnTracker {
 public:
  ChurnTracker(size_t num_nodes, size_t grid, MetricRegistry* registry);

  /// Ingests one sweep at sim-time `now`. `links` supplies node positions
  /// for region bucketing (the bounding box is latched on first sweep).
  void Observe(const ClusterView& view, const LinkModel& links, Time now);

  uint64_t flaps_total() const { return flaps_; }
  uint64_t elections_total() const { return elections_; }
  uint64_t completed_tenures() const { return completed_; }
  /// Count since the previous sweep (the published gauge values).
  double flap_rate() const { return flap_rate_; }
  double election_rate() const { return election_rate_; }
  /// Median completed tenure in ticks; while none completed, the median
  /// ongoing tenure (0 when nothing was ever active).
  double tenure_p50() const { return tenure_p50_; }
  size_t grid() const { return grid_; }
  /// Cumulative elections in grid cell (row-major `cell`).
  uint64_t RegionElections(size_t cell) const;

 private:
  size_t RegionOf(const Point& p) const;
  void UpdateTenureP50(Time now);

  const size_t num_nodes_;
  const size_t grid_;
  GaugePack gauges_;
  Counter* flaps_counter_;
  Counter* elections_counter_;
  Counter* tenures_counter_;
  std::vector<Counter*> region_counters_;  // grid_ * grid_, row-major
  LogHistogram tenure_hist_;

  std::vector<NodeId> prev_rep_;
  std::vector<uint8_t> prev_is_rep_;
  std::vector<Time> active_since_;      // -1 while not holding the role
  std::vector<double> tenure_scratch_;  // preallocated for the p50
  bool first_sweep_ = true;
  Rect bounds_ = Rect::UnitSquare();  // latched from positions on first sweep
  uint64_t flaps_ = 0;
  uint64_t elections_ = 0;
  uint64_t completed_ = 0;
  double flap_rate_ = 0.0;
  double election_rate_ = 0.0;
  double tenure_p50_ = 0.0;
};

// ---------------------------------------------------------------------------
// TopologyMonitor

struct TopologyConfig {
  /// Distinct directed links the observer tracks. 0 = the deployment's
  /// directed edge count (LinkObserver::CapacityFor), which holds every
  /// link of a static deployment. Nodes that move keep adding links
  /// (about 3 per waypoint step of a quarter range at 1k nodes, without
  /// bound), and records past the capacity are dropped; a deployment that
  /// moves nodes sets this explicitly, e.g. to
  /// LinkObserver::kDefaultMaxLinks.
  size_t max_links = 0;
};

/// A link with at least kWeakLinkMinAttempts addressed outcomes and an
/// EWMA delivery ratio below kWeakLinkThreshold counts as weak.
inline constexpr double kWeakLinkThreshold = 0.5;
inline constexpr uint64_t kWeakLinkMinAttempts = 8;
/// The monitor's churn region grid is kChurnGrid x kChurnGrid cells.
inline constexpr size_t kChurnGrid = 4;

/// Owns the observer, the churn tracker and the latest snapshot; publishes
/// the topo.* gauges and the `topo.sample` journal event once per Sample.
/// One per simulation (not thread-safe, like the registry). Attach the
/// observer with Simulator::SetLinkObserver(&monitor.link_observer()).
class TopologyMonitor {
 public:
  /// Sized for `links`: one view slot per node, and the link table from
  /// the deployment when `config.max_links` is 0.
  TopologyMonitor(const TopologyConfig& config, const LinkModel& links,
                  MetricRegistry* registry, EventJournal* journal = nullptr);

  LinkObserver& link_observer() { return observer_; }
  const LinkObserver& link_observer() const { return observer_; }
  ChurnTracker& churn() { return churn_; }
  const ChurnTracker& churn() const { return churn_; }

  /// The view the caller refills before each Sample (preallocated to the
  /// node count at construction).
  ClusterView& mutable_view() { return view_; }

  /// Analyzes the topology under the current view, feeds the churn
  /// tracker, publishes every gauge and emits `topo.sample`. Returns the
  /// stored snapshot (valid until the next Sample).
  const TopologySnapshot& Sample(const LinkModel& links, Time now);

  /// The most recent snapshot (empty before the first Sample).
  const TopologySnapshot& last() const { return snapshot_; }
  uint64_t num_samples() const { return num_samples_; }
  const TopologyConfig& config() const { return config_; }

  /// One-screen summary: structure, churn and the weakest observed links
  /// (shell `\topo`).
  std::string ToString() const;

 private:
  const TopologyConfig config_;
  LinkObserver observer_;
  ChurnTracker churn_;
  ClusterView view_;
  TopologySnapshot snapshot_;
  GaugePack gauges_;
  Counter* samples_counter_;
  EventJournal* journal_;
  uint64_t num_samples_ = 0;
};

// ---------------------------------------------------------------------------
// Sidecar

struct TopoMapMeta {
  std::string benchmark;
  std::string git_sha;
  bool quick = false;
  Time t = 0;
  /// Driver-specific scalars ("partitions_r0.2", ...), emitted in order
  /// under the "extras" key.
  std::vector<std::pair<std::string, double>> extras;
};

inline constexpr int kTopoMapSchemaVersion = 1;

/// Renders the schema-versioned `*.topo.json` document: metadata, the
/// structural summary, churn totals, per-cluster stats, bridge /
/// articulation lists, one entry per node (position, liveness, degree,
/// component, representative) and the observed links sorted by (from, to).
/// `positions` must have one entry per node; `links` is typically
/// LinkObserver::SortedLinks() (pass {} when nothing was observed).
/// Golden-frozen in topo_schema_test; consumed by tools/topo_report.py.
std::string TopoMapToJson(const TopologySnapshot& snap,
                          const std::vector<Point>& positions,
                          const std::vector<LinkStats>& links,
                          const TopoMapMeta& meta);

}  // namespace snapq::obs

#endif  // SNAPQ_OBS_TOPO_H_
