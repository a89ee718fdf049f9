// Query execution over the simulated network, with the §6.2 accounting:
//
//  * regular execution — every live node matching the spatial predicate
//    responds; the aggregation tree routes partial results to the sink;
//  * snapshot execution (USE SNAPSHOT) — a node responds iff it is not
//    represented and matches the predicate, or it represents a node that
//    matches; represented (PASSIVE) nodes stay idle, though they may still
//    be asked to route;
//  * participants = responders plus every node on a responder's routing
//    path (routers included, as the paper counts them);
//  * coverage = measurements available to the query / measurements an
//    infinite-battery network would deliver (Fig 10's metric);
//  * duplicate claims from spurious representatives are filtered by latest
//    election epoch, "transparently from the application" (§3).
#ifndef SNAPQ_QUERY_EXECUTOR_H_
#define SNAPQ_QUERY_EXECUTOR_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "query/ast.h"
#include "query/catalog.h"
#include "query/routing_tree.h"
#include "sim/simulator.h"
#include "snapshot/agent.h"

namespace snapq {

namespace obs {
class AccuracyAuditor;
class Counter;
class Gauge;
}  // namespace obs

/// One returned row (drill-through queries).
struct QueryRow {
  NodeId loc = kInvalidNode;   ///< the node whose measurement this is
  NodeId reporter = kInvalidNode;  ///< who produced it (rep or the node)
  double value = 0.0;
  bool estimated = false;      ///< true when a representative's model answered
  /// Estimate − ground truth (signed), on estimated rows — the simulator
  /// knows the represented node's true current reading even though the
  /// network never transmitted it. Absent on self-reported rows.
  std::optional<double> model_error;
};

/// Sentinel epoch for self-reports: a node's own reading always supersedes
/// any representative's claim about it.
inline constexpr int64_t kQueryClaimSelfEpoch =
    std::numeric_limits<int64_t>::max();

/// One deduplicated claim "reporter says node j's value is v". `epoch` is
/// the election epoch of the representation backing the claim
/// (kQueryClaimSelfEpoch for a node reporting its own reading).
struct QueryClaim {
  NodeId reporter = kInvalidNode;
  int64_t epoch = -1;
  double value = 0.0;
  bool estimated = false;
};

/// Answer provenance + §6.2 cost of one query round. Produced two ways:
///
///  * PlanRegion() — a side-effect-free *estimate* from the current
///    snapshot state (EXPLAIN's plan);
///  * ExecutionOptions::provenance — *actuals* captured while ExecuteRegion
///    runs (EXPLAIN ANALYZE joins the two).
///
/// Filling one allocates; leave the hook null on hot paths — a null hook
/// adds zero heap allocations to execution (see explain_alloc_test).
struct QueryProvenance {
  /// Nodes matching the predicate (dead or alive).
  size_t matching_nodes = 0;
  /// Responders that can reach the sink.
  size_t responders = 0;
  /// Responders plus routers on their paths.
  size_t participants = 0;
  /// Nodes with a route to the sink (the flood's reach).
  size_t reachable_nodes = 0;
  /// kQueryReply transmissions the round induces: one per participant,
  /// the sink excluded (it hands the result to the base station).
  size_t messages = 0;
  /// Energy those messages drain (0 unless charge_energy).
  double energy = 0.0;
  /// Max routing-tree depth over reachable responders; -1 when none.
  int tree_depth = -1;
  /// Winning (deduplicated) claims, one per covered node.
  std::map<NodeId, QueryClaim> claims;
  /// Routing-tree depth per node; -1 = unreachable from the sink.
  std::vector<int> depth;
};

/// Result + cost accounting of one query round.
struct QueryResult {
  /// Nodes that transmitted for this query (responders + routers).
  size_t participants = 0;
  /// Nodes that produced data (themselves or on behalf of others).
  size_t responders = 0;
  /// Nodes matching the predicate, dead or alive (coverage denominator).
  size_t matching_nodes = 0;
  /// Measurements delivered (coverage numerator).
  size_t covered_nodes = 0;
  /// covered / matching, 1.0 for an empty region.
  double coverage = 1.0;

  /// Aggregate answer (aggregate queries only).
  std::optional<double> aggregate;
  /// Ground-truth aggregate over all matching nodes' true current values
  /// (dead or alive) — for error reporting in experiments.
  std::optional<double> true_aggregate;

  /// Drill-through rows, ordered by loc.
  std::vector<QueryRow> rows;
};

/// Per-execution knobs.
struct ExecutionOptions {
  NodeId sink = 0;
  /// Charge one transmission per participant (the paper's Fig 10
  /// accounting). Leave false for pure counting experiments.
  bool charge_energy = false;
  /// Bias routing-tree parent selection toward representatives (§3.1).
  bool favor_representatives = false;
  /// §5: under severe energy constraints passive nodes "ask their
  /// representative to replace them on all user queries" — they sleep
  /// entirely and do not even route. Snapshot queries then traverse
  /// representatives (and undecided nodes) only; coverage may drop where
  /// the active subgraph disconnects. Ignored for regular queries.
  bool passive_nodes_sleep = false;
  /// Provenance hook: when non-null, ExecuteRegion fills it with the
  /// round's actual claims, routing depths and cost. Null (the default)
  /// costs one branch and no allocations.
  QueryProvenance* provenance = nullptr;
  /// Accuracy-audit hook: when non-null, every snapshot round compares
  /// each estimated claim against the represented node's true reading (the
  /// simulator knows it) and feeds the residuals into the auditor. Same
  /// discipline as the provenance hook: null (the default) costs one
  /// branch and no heap allocations (see the audit allocation test) — and
  /// the auditor's observe path is itself allocation-free, so enabling it
  /// does not disturb the query path either.
  obs::AccuracyAuditor* audit = nullptr;
  /// The effective threshold audited estimates are judged against: the
  /// per-query USE SNAPSHOT ERROR override when the caller filled it
  /// (Execute and ExplainQuery do), else the agents' configured T.
  std::optional<double> audit_threshold;
};

/// Executes queries against the agents' current state.
class QueryExecutor {
 public:
  QueryExecutor(Simulator* sim,
                std::vector<std::unique_ptr<SnapshotAgent>>* agents,
                Catalog catalog);

  /// Parses, validates, resolves and executes `sql` (single round).
  Result<QueryResult> ExecuteSql(const std::string& sql,
                                 const ExecutionOptions& options);

  /// Executes a parsed query (single round).
  Result<QueryResult> Execute(const QuerySpec& spec,
                              const ExecutionOptions& options);

  /// Core entry point: executes one round over `region`.
  QueryResult ExecuteRegion(const Rect& region, bool use_snapshot,
                            AggregateFunction aggregate,
                            const ExecutionOptions& options);

  /// Side-effect-free planning: the routing tree, responder set, winning
  /// claims and §6.2 cost the executor would use for one round executed
  /// right now. Nothing is transmitted, charged or journaled — this is
  /// EXPLAIN's estimate, joined against the actuals captured through
  /// ExecutionOptions::provenance by EXPLAIN ANALYZE.
  ///
  /// `const` because it changes no network state; it still fills the
  /// executor's routing-tree cache and scratch, so an executor serves one
  /// thread at a time (parallel sweeps give each task its own network).
  QueryProvenance PlanRegion(const Rect& region, bool use_snapshot,
                             const ExecutionOptions& options) const;

  const Catalog& catalog() const { return catalog_; }
  Catalog& catalog() { return catalog_; }

  Simulator& sim() { return *sim_; }
  const std::vector<std::unique_ptr<SnapshotAgent>>& agents() const {
    return *agents_;
  }

  /// How rounds obtained their routing tree: a cache hit, a repair of the
  /// sink's cached tree, or a build from scratch.
  struct RouteStats {
    uint64_t hits = 0;
    uint64_t repairs = 0;
    uint64_t builds = 0;
  };
  const RouteStats& route_stats() const { return route_stats_; }

 private:
  /// Routing trees kept for reuse, at most one per (sink, sleeping,
  /// favored). Four covers a gateway per query sink in the served
  /// workloads; the rest absorbs the per-sink variants (passive sleep,
  /// favored routing) that alternate between rounds.
  static constexpr size_t kTreeCacheCapacity = 8;

  /// One cached tree and the full key it is a pure function of: the sink,
  /// the radio geometry (LinkModel::version()), the alive set (the length
  /// of Simulator::deaths(): batteries never refill), the passive
  /// sleepers when they sleep, and the favor bits, if any.
  struct CachedTree {
    NodeId sink = kInvalidNode;
    uint64_t links_version = 0;
    size_t deaths = 0;
    bool sleeping = false;
    bool favored = false;
    std::vector<bool> sleep;
    std::vector<bool> favor;
    RoutingTree tree;
  };

  /// A set of node ids as a bitmap: O(1) insert and test, and listed in
  /// ascending id order in O(n/64 + size), with no sort.
  struct NodeBits {
    std::vector<uint64_t> words;
    bool Test(NodeId i) const { return ((words[i >> 6] >> (i & 63)) & 1) != 0; }
    void Set(NodeId i) { words[i >> 6] |= uint64_t{1} << (i & 63); }
    void Clear(NodeId i) { words[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
    /// Appends the members to `out` in ascending order.
    void AppendTo(std::vector<NodeId>* out) const;
  };

  /// Registry instruments, resolved on first use (so a network that never
  /// queries registers none of them) and then kept: registry handles are
  /// stable for the registry's lifetime.
  struct Instruments {
    obs::Counter* executions = nullptr;
    obs::Counter* snapshot_executions = nullptr;
    obs::LogHistogram* participants = nullptr;
    obs::LogHistogram* responders = nullptr;
    obs::LogHistogram* sim_ticks = nullptr;  ///< "query.execute.sim_ticks"
    obs::Gauge* energy_drained = nullptr;
    std::vector<obs::Counter*> energy_tx;  ///< per node, on first charge
  };

  /// The participation pass shared by ExecuteRegion and PlanRegion: lists
  /// the nodes matching `region` in matched_ (and flags them in
  /// matching_), fetches the round's routing tree, and fills reachable_
  /// (responders that can reach the sink) and participants_ (those plus
  /// the routers on their paths, ascending id). Returns the tree.
  const RoutingTree& PlanParticipation(const Rect& region, bool use_snapshot,
                                       const ExecutionOptions& options) const;

  /// The routing tree for `sink` over the live nodes (less the sleepers
  /// in sleep_ when `sleeping`, with favor_ when `favored`): a cache hit
  /// when the key matches the entry, else that entry repaired from the
  /// links' change log and the deaths since when its sleep and favor bits
  /// still hold, else a fresh RoutingTree::Build.
  const RoutingTree& TreeFor(NodeId sink, bool sleeping, bool favored) const;

  /// Sets `out` to the live nodes that respond to a query over matched_,
  /// per the snapshot rule, in ascending id order. Visits only matched_
  /// and their representatives (Simulator::representation()).
  void CollectResponders(bool use_snapshot, std::vector<NodeId>* out) const;

  /// Sorts `ids` ascending and drops repeats, through sorter_.
  void SortIds(std::vector<NodeId>* ids) const;

  /// Deduplicates claims from reachable_ over matching_ by latest election
  /// epoch (spurious-representative filtering, §3) into claims_, and lists
  /// the claimed node ids in claimed_ in ascending order. Both stay valid
  /// until the next call.
  void CollectClaims(bool use_snapshot) const;

  /// The round's provenance from the participation pass over `tree` and
  /// the claims of the last CollectClaims: PlanRegion's estimate and
  /// ExecuteRegion's actuals are the same fill.
  QueryProvenance Provenance(const RoutingTree& tree,
                             const ExecutionOptions& options) const;

  Simulator* const sim_;
  std::vector<std::unique_ptr<SnapshotAgent>>* const agents_;
  Catalog catalog_;
  Instruments instruments_;

  // Per-round scratch, reused so a round allocates nothing that grows with
  // the region (see explain_alloc_test). The bit sets and claims_ are
  // indexed by node id; the lists hold node ids, ascending. A bit set is
  // cleared through its list before the next round fills it.
  mutable NodeBits matching_;
  mutable std::vector<NodeId> matched_;  ///< capacity n
  /// Empty between uses; SortIds lists ids through it.
  mutable NodeBits sorter_;
  /// The live nodes: alive at construction, less Simulator::deaths() up
  /// to deaths_seen_.
  mutable std::vector<bool> alive_;
  mutable size_t deaths_seen_ = 0;
  /// alive_ less the sleeping passive nodes, for sleeping rounds.
  mutable std::vector<bool> awake_;
  mutable std::vector<bool> sleep_;
  mutable std::vector<bool> favor_;
  mutable NodeBits on_path_;
  mutable std::vector<NodeId> reachable_;
  mutable std::vector<NodeId> participants_;
  /// Winning claim per node; only the entries listed in claimed_ are live.
  mutable std::vector<QueryClaim> claims_;
  mutable std::vector<NodeId> claimed_;

  mutable std::vector<CachedTree> trees_;
  mutable size_t next_evict_ = 0;
  mutable std::vector<NodeId> changed_;
  mutable RoutingTree::RepairScratch repair_scratch_;
  mutable RouteStats route_stats_;
};

}  // namespace snapq

#endif  // SNAPQ_QUERY_EXECUTOR_H_
