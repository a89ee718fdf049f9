#include "query/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "common/check.h"
#include "obs/accuracy.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "query/aggregation.h"
#include "query/parser.h"
#include "query/predicate.h"

namespace snapq {
namespace {

/// Later election epoch wins; self-reports carry +inf epoch; ties break
/// toward the larger reporter id (deterministic).
bool Supersedes(const QueryClaim& a, const QueryClaim& b) {
  if (a.epoch != b.epoch) return a.epoch > b.epoch;
  return a.reporter > b.reporter;
}

}  // namespace

QueryExecutor::QueryExecutor(
    Simulator* sim, std::vector<std::unique_ptr<SnapshotAgent>>* agents,
    Catalog catalog)
    : sim_(sim), agents_(agents), catalog_(std::move(catalog)) {
  SNAPQ_CHECK(sim != nullptr && agents != nullptr);
  const size_t n = agents->size();
  SNAPQ_CHECK_EQ(sim->num_nodes(), n);
  matching_.assign(n, false);
  alive_.assign(n, false);
  favor_.assign(n, false);
  on_path_.assign(n, 0);
  claims_.assign(n, QueryClaim{});
}

Result<QueryResult> QueryExecutor::ExecuteSql(const std::string& sql,
                                              const ExecutionOptions& options) {
  Result<QuerySpec> spec = ParseQuery(sql);
  if (!spec.ok()) return spec.status();
  return Execute(*spec, options);
}

Result<QueryResult> QueryExecutor::Execute(const QuerySpec& spec,
                                           const ExecutionOptions& options) {
  if (spec.explain != ExplainMode::kNone) {
    return Status::InvalidArgument(
        "EXPLAIN statements do not execute directly; run them through "
        "ExplainQuery/ExplainSql (api: SensorNetwork::Explain)");
  }
  SNAPQ_RETURN_IF_ERROR(ValidateColumns(spec, catalog_));
  const Rect everywhere{-1e300, -1e300, 1e300, 1e300};
  Result<Rect> region = ResolveRegion(spec, catalog_, everywhere);
  if (!region.ok()) return region.status();
  if (options.audit != nullptr && spec.snapshot_threshold.has_value() &&
      !options.audit_threshold.has_value()) {
    // Audited rounds must be judged against the query's effective T: carry
    // the per-query USE SNAPSHOT ERROR override down to ExecuteRegion.
    ExecutionOptions audited = options;
    audited.audit_threshold = spec.snapshot_threshold;
    return ExecuteRegion(*region, spec.use_snapshot, spec.TheAggregate(),
                         audited);
  }
  return ExecuteRegion(*region, spec.use_snapshot, spec.TheAggregate(),
                       options);
}

void QueryExecutor::CollectResponders(bool use_snapshot,
                                      std::vector<NodeId>* out) const {
  const size_t n = agents_->size();
  for (NodeId i = 0; i < n; ++i) {
    if (!sim_->alive(i)) continue;
    const SnapshotAgent& agent = *(*agents_)[i];
    const bool in_region = matching_[i];
    if (!use_snapshot) {
      if (in_region) out->push_back(i);
      continue;
    }
    // Snapshot rule (§3.1): respond when (i) not represented and matching,
    // or (ii) representing a matching node.
    if (in_region && agent.mode() != NodeMode::kPassive) {
      out->push_back(i);
      continue;
    }
    for (const auto& [j, e] : agent.represents()) {
      if (matching_[j]) {
        out->push_back(i);
        break;
      }
    }
  }
}

const RoutingTree& QueryExecutor::TreeFor(NodeId sink, bool favored) const {
  const uint64_t version = sim_->links().version();
  for (const CachedTree& entry : trees_) {
    if (entry.sink == sink && entry.links_version == version &&
        entry.favored == favored && entry.alive == alive_ &&
        (!favored || entry.favor == favor_)) {
      return entry.tree;
    }
  }
  CachedTree fresh{sink, version, favored, alive_,
                   favored ? favor_ : std::vector<bool>{},
                   RoutingTree::Build(sim_->links(), alive_, sink,
                                      favored ? &favor_ : nullptr)};
  if (trees_.size() < kTreeCacheCapacity) {
    trees_.push_back(std::move(fresh));
    return trees_.back().tree;
  }
  CachedTree& victim = trees_[next_evict_];
  next_evict_ = (next_evict_ + 1) % kTreeCacheCapacity;
  victim = std::move(fresh);
  return victim.tree;
}

const RoutingTree& QueryExecutor::PlanParticipation(
    const Rect& region, bool use_snapshot, const ExecutionOptions& options,
    size_t* matching_nodes) const {
  const size_t n = agents_->size();
  SNAPQ_CHECK_LT(options.sink, n);

  // Coverage denominator: every placed node matching the predicate (dead
  // included — an infinite-battery network would have heard them all).
  *matching_nodes = 0;
  for (NodeId i = 0; i < n; ++i) {
    matching_[i] = region.Contains(sim_->links().position(i));
    if (matching_[i]) ++*matching_nodes;
  }

  for (NodeId i = 0; i < n; ++i) {
    alive_[i] = sim_->alive(i);
    if (use_snapshot && options.passive_nodes_sleep && i != options.sink &&
        (*agents_)[i]->mode() == NodeMode::kPassive) {
      alive_[i] = false;  // sleeping: neither responds nor routes
    }
  }
  if (options.favor_representatives) {
    for (NodeId i = 0; i < n; ++i) {
      favor_[i] = (*agents_)[i]->mode() == NodeMode::kActive;
    }
  }
  const RoutingTree& tree =
      TreeFor(options.sink, options.favor_representatives);

  reachable_.clear();
  CollectResponders(use_snapshot, &reachable_);
  // A responder the flood never reaches never hears the request.
  std::erase_if(reachable_,
                [&](NodeId r) { return !tree.IsReachable(r); });

  // Participants: reachable responders plus the routers on their paths
  // (the paper counts routing nodes as participants). Each walk stops at
  // the first node an earlier walk marked, so the pass is O(participants).
  for (NodeId i : participants_) on_path_[i] = 0;
  participants_.clear();
  for (NodeId r : reachable_) {
    for (NodeId v = r; v != kInvalidNode && on_path_[v] == 0;
         v = tree.parent(v)) {
      on_path_[v] = 1;
      participants_.push_back(v);
    }
  }
  std::sort(participants_.begin(), participants_.end());
  return tree;
}

QueryResult QueryExecutor::ExecuteRegion(const Rect& region,
                                         bool use_snapshot,
                                         AggregateFunction aggregate,
                                         const ExecutionOptions& options) {
  const size_t n = agents_->size();
  SNAPQ_CHECK_LT(options.sink, n);
  obs::ProfCount(obs::HotOp::kQueriesExecuted);
  obs::Span span(sim_->registry(), obs::ProfPhase::kQueryExecution);
  // Root cause: the injected query. `value` records the USE SNAPSHOT flag
  // so the analyzer knows which invariant applies.
  const TraceContext qroot = sim_->MintTraceRoot(
      obs::TraceRootKind::kQuery, options.sink, use_snapshot ? 1 : 0);
  span.AttachTrace(sim_->tracer(), qroot);
  span.BeginSim(sim_->now());
  Simulator::TraceScope trace_scope(*sim_, qroot);
  QueryResult result;

  const RoutingTree& tree =
      PlanParticipation(region, use_snapshot, options, &result.matching_nodes);
  result.participants = participants_.size();
  result.responders = reachable_.size();
  if (qroot.sampled()) {
    // One instant per responder; `value` flags a PASSIVE responder, which
    // breaks the snapshot invariant (representatives answer for members).
    for (NodeId r : reachable_) {
      const bool passive = (*agents_)[r]->mode() == NodeMode::kPassive;
      sim_->tracer()->RecordInstant(qroot, "query.respond", r, sim_->now(),
                                    passive ? 1 : 0);
    }
  }

  obs::MetricRegistry& reg = sim_->registry();
  Instruments& ins = instruments_;
  if (ins.executions == nullptr) {
    static const std::vector<double> node_buckets{0,  1,  2,   5,   10,
                                                  20, 50, 100, 200, 500};
    ins.executions = reg.GetCounter("query.executions");
    ins.participants = reg.GetHistogram("query.participants", node_buckets);
    ins.responders = reg.GetHistogram("query.responders", node_buckets);
  }
  ins.executions->Inc();
  if (use_snapshot) {
    if (ins.snapshot_executions == nullptr) {
      ins.snapshot_executions = reg.GetCounter("query.snapshot_executions");
    }
    ins.snapshot_executions->Inc();
  }
  ins.participants->Observe(static_cast<double>(result.participants));
  ins.responders->Observe(static_cast<double>(result.responders));

  // kQueryReply transmissions this round induces: one per participant, the
  // sink excluded (it hands the result to the base station radio-free).
  const size_t replies =
      result.participants - (on_path_[options.sink] != 0 ? 1u : 0u);

  if (options.charge_energy) {
    // One transmission per participant: its partial aggregate / row batch
    // sent one hop up the tree. Attributed per node in the registry so
    // Fig-10-style runs can split election vs maintenance vs query drain.
    if (ins.energy_tx.empty()) ins.energy_tx.assign(n, nullptr);
    const double tx = sim_->config().energy.tx_cost;
    for (NodeId i : participants_) {
      if (i == options.sink) continue;
      // DrainAs lands the joules in the energy ledger's kQueryReply/tx
      // cell, matching the CountSent attribution below.
      sim_->DrainAs(i, tx, MessageType::kQueryReply);
      sim_->metrics().CountSent(MessageType::kQueryReply);
      if (ins.energy_tx[i] == nullptr) {
        ins.energy_tx[i] = reg.GetCounter("query.energy.tx", i);
      }
      ins.energy_tx[i]->Inc();
    }
    if (ins.energy_drained == nullptr) {
      ins.energy_drained = reg.GetGauge("query.energy.drained");
    }
    ins.energy_drained->Add(tx * static_cast<double>(replies));
  }

  // Collect measurements, deduplicating multiple claims per node by latest
  // election epoch (spurious-representative filtering, §3).
  CollectClaims(use_snapshot);

  result.covered_nodes = claimed_.size();
  result.coverage =
      result.matching_nodes == 0
          ? 1.0
          : static_cast<double>(result.covered_nodes) /
                static_cast<double>(result.matching_nodes);

  if (options.audit != nullptr && use_snapshot) {
    // Shadow ground-truth audit: judge every estimated claim against the
    // represented node's true current reading under the deployment's error
    // metric and the query's effective T. The auditor's observe path is
    // allocation-free; a null hook costs the branch above and nothing else.
    obs::AccuracyAuditor& audit = *options.audit;
    const SnapshotConfig& snap_config = (*agents_)[0]->config();
    const double threshold =
        options.audit_threshold.value_or(snap_config.threshold);
    audit.BeginRound(obs::AuditSource::kQuery,
                     static_cast<int64_t>(options.sink), threshold,
                     sim_->now());
    for (NodeId j : claimed_) {
      const QueryClaim& claim = claims_[j];
      if (!claim.estimated) continue;
      const double truth = (*agents_)[j]->measurement();
      audit.ObserveEstimate(j, claim.reporter, claim.value - truth,
                            snap_config.metric.Distance(truth, claim.value));
    }
    audit.EndRound();
  }

  sim_->journal().Emit("query.plan", sim_->now(), [&](obs::JournalEvent& e) {
    size_t estimated = 0;
    double max_abs_error = 0.0;
    for (NodeId j : claimed_) {
      const QueryClaim& claim = claims_[j];
      if (!claim.estimated) continue;
      ++estimated;
      const double err =
          std::abs(claim.value - (*agents_)[j]->measurement());
      if (err > max_abs_error) max_abs_error = err;
    }
    e.Node(options.sink)
        .Bool("use_snapshot", use_snapshot)
        .Bool("passive_sleep", options.passive_nodes_sleep)
        .Int("matching", static_cast<int64_t>(result.matching_nodes))
        .Int("responders", static_cast<int64_t>(result.responders))
        .Int("participants", static_cast<int64_t>(result.participants))
        .Int("covered", static_cast<int64_t>(result.covered_nodes))
        .Int("estimated", static_cast<int64_t>(estimated))
        .Num("max_abs_error", max_abs_error);
  });

  // Answers.
  if (aggregate != AggregateFunction::kNone) {
    PartialAggregate agg(aggregate);
    for (NodeId j : claimed_) agg.AddValue(claims_[j].value);
    result.aggregate = agg.Finalize();
    PartialAggregate truth(aggregate);
    for (NodeId i = 0; i < n; ++i) {
      if (matching_[i]) truth.AddValue((*agents_)[i]->measurement());
    }
    result.true_aggregate = truth.Finalize();
  } else {
    result.rows.reserve(claimed_.size());
    for (NodeId j : claimed_) {
      const QueryClaim& claim = claims_[j];
      QueryRow row{j, claim.reporter, claim.value, claim.estimated, {}};
      if (claim.estimated) {
        row.model_error = claim.value - (*agents_)[j]->measurement();
      }
      result.rows.push_back(std::move(row));
    }
  }

  if (options.provenance != nullptr) {
    QueryProvenance& prov = *options.provenance;
    prov.matching_nodes = result.matching_nodes;
    prov.responders = result.responders;
    prov.participants = result.participants;
    prov.reachable_nodes = tree.CountReachable();
    prov.messages = replies;
    prov.energy = options.charge_energy
                      ? sim_->config().energy.tx_cost *
                            static_cast<double>(replies)
                      : 0.0;
    prov.tree_depth = -1;
    for (NodeId r : reachable_) {
      prov.tree_depth = std::max(prov.tree_depth, tree.depth(r));
    }
    prov.claims = ClaimMap();
    prov.depth.assign(n, -1);
    for (NodeId i = 0; i < n; ++i) prov.depth[i] = tree.depth(i);
  }

  span.EndSim(sim_->now());
  return result;
}

void QueryExecutor::CollectClaims(bool use_snapshot) const {
  for (NodeId j : claimed_) claims_[j] = QueryClaim{};
  claimed_.clear();
  // An empty slot (reporter == kInvalidNode) takes any claim; a taken one
  // only a superseding claim.
  const auto offer = [&](NodeId j, const QueryClaim& claim) {
    QueryClaim& slot = claims_[j];
    if (slot.reporter == kInvalidNode) {
      slot = claim;
      claimed_.push_back(j);
    } else if (Supersedes(claim, slot)) {
      slot = claim;
    }
  };
  for (NodeId r : reachable_) {
    const SnapshotAgent& agent = *(*agents_)[r];
    if (matching_[r] &&
        (!use_snapshot || agent.mode() != NodeMode::kPassive)) {
      offer(r, QueryClaim{r, kQueryClaimSelfEpoch, agent.measurement(),
                          false});
    }
    if (!use_snapshot) continue;
    for (const auto& [j, e] : agent.represents()) {
      if (!matching_[j]) continue;
      const std::optional<double> estimate = agent.EstimateFor(j);
      if (!estimate.has_value()) continue;
      offer(j, QueryClaim{r, e, *estimate, true});
    }
  }
  std::sort(claimed_.begin(), claimed_.end());
}

std::map<NodeId, QueryClaim> QueryExecutor::ClaimMap() const {
  std::map<NodeId, QueryClaim> claims;
  for (NodeId j : claimed_) claims.emplace_hint(claims.end(), j, claims_[j]);
  return claims;
}

QueryProvenance QueryExecutor::PlanRegion(
    const Rect& region, bool use_snapshot,
    const ExecutionOptions& options) const {
  // Shares ExecuteRegion's participation pass exactly: the estimate and
  // the actuals must only diverge when the snapshot state itself changes
  // between planning and execution.
  QueryProvenance plan;
  const RoutingTree& tree =
      PlanParticipation(region, use_snapshot, options, &plan.matching_nodes);
  for (NodeId r : reachable_) {
    plan.tree_depth = std::max(plan.tree_depth, tree.depth(r));
  }
  plan.participants = participants_.size();
  plan.responders = reachable_.size();
  plan.reachable_nodes = tree.CountReachable();
  plan.messages =
      plan.participants - (on_path_[options.sink] != 0 ? 1u : 0u);
  plan.energy = options.charge_energy
                    ? sim_->config().energy.tx_cost *
                          static_cast<double>(plan.messages)
                    : 0.0;

  CollectClaims(use_snapshot);
  plan.claims = ClaimMap();
  const size_t n = agents_->size();
  plan.depth.assign(n, -1);
  for (NodeId i = 0; i < n; ++i) plan.depth[i] = tree.depth(i);
  return plan;
}

}  // namespace snapq
