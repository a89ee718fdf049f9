#include "query/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

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
  SNAPQ_CHECK_EQ(sim->num_nodes(), agents->size());
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

std::vector<NodeId> QueryExecutor::CollectResponders(const Rect& region,
                                                     bool use_snapshot) const {
  std::vector<NodeId> responders;
  const size_t n = agents_->size();
  for (NodeId i = 0; i < n; ++i) {
    if (!sim_->alive(i)) continue;
    const SnapshotAgent& agent = *(*agents_)[i];
    const bool in_region = region.Contains(sim_->links().position(i));
    if (!use_snapshot) {
      if (in_region) responders.push_back(i);
      continue;
    }
    // Snapshot rule (§3.1): respond when (i) not represented and matching,
    // or (ii) representing a matching node.
    if (in_region && agent.mode() != NodeMode::kPassive) {
      responders.push_back(i);
      continue;
    }
    for (const auto& [j, e] : agent.represents()) {
      if (region.Contains(sim_->links().position(j))) {
        responders.push_back(i);
        break;
      }
    }
  }
  return responders;
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

  // Coverage denominator: every placed node matching the predicate (dead
  // included — an infinite-battery network would have heard them all).
  std::vector<bool> matching(n, false);
  for (NodeId i = 0; i < n; ++i) {
    if (region.Contains(sim_->links().position(i))) {
      matching[i] = true;
      ++result.matching_nodes;
    }
  }

  std::vector<bool> alive(n, false);
  for (NodeId i = 0; i < n; ++i) {
    alive[i] = sim_->alive(i);
    if (use_snapshot && options.passive_nodes_sleep && i != options.sink &&
        (*agents_)[i]->mode() == NodeMode::kPassive) {
      alive[i] = false;  // sleeping: neither responds nor routes
    }
  }

  std::vector<bool> favor;
  const std::vector<bool>* favor_ptr = nullptr;
  if (options.favor_representatives) {
    favor.assign(n, false);
    for (NodeId i = 0; i < n; ++i) {
      favor[i] = (*agents_)[i]->mode() == NodeMode::kActive;
    }
    favor_ptr = &favor;
  }
  const RoutingTree tree =
      RoutingTree::Build(sim_->links(), alive, options.sink, favor_ptr);

  const std::vector<NodeId> responders =
      CollectResponders(region, use_snapshot);

  // Participants: responders that can reach the sink, plus the routers on
  // their paths (the paper counts routing nodes as participants).
  std::vector<bool> participates(n, false);
  std::vector<NodeId> reachable_responders;
  for (NodeId r : responders) {
    if (!tree.IsReachable(r)) continue;  // never hears the request
    reachable_responders.push_back(r);
    for (NodeId on_path : tree.PathToSink(r)) {
      participates[on_path] = true;
    }
  }
  for (NodeId i = 0; i < n; ++i) {
    if (participates[i]) ++result.participants;
  }
  result.responders = reachable_responders.size();
  if (qroot.sampled()) {
    // One instant per responder; `value` flags a PASSIVE responder, which
    // breaks the snapshot invariant (representatives answer for members).
    for (NodeId r : reachable_responders) {
      const bool passive = (*agents_)[r]->mode() == NodeMode::kPassive;
      sim_->tracer()->RecordInstant(qroot, "query.respond", r, sim_->now(),
                                    passive ? 1 : 0);
    }
  }

  obs::MetricRegistry& reg = sim_->registry();
  reg.GetCounter("query.executions")->Inc();
  if (use_snapshot) reg.GetCounter("query.snapshot_executions")->Inc();
  const std::vector<double> node_buckets{0, 1, 2, 5, 10, 20, 50, 100, 200,
                                         500};
  reg.GetHistogram("query.participants", node_buckets)
      ->Observe(static_cast<double>(result.participants));
  reg.GetHistogram("query.responders", node_buckets)
      ->Observe(static_cast<double>(result.responders));

  // kQueryReply transmissions this round induces: one per participant, the
  // sink excluded (it hands the result to the base station radio-free).
  const size_t replies =
      result.participants - (participates[options.sink] ? 1u : 0u);

  if (options.charge_energy) {
    // One transmission per participant: its partial aggregate / row batch
    // sent one hop up the tree. Attributed per node in the registry so
    // Fig-10-style runs can split election vs maintenance vs query drain.
    const double tx = sim_->config().energy.tx_cost;
    for (NodeId i = 0; i < n; ++i) {
      if (!participates[i] || i == options.sink) continue;
      // DrainAs lands the joules in the energy ledger's kQueryReply/tx
      // cell, matching the CountSent attribution below.
      sim_->DrainAs(i, tx, MessageType::kQueryReply);
      sim_->metrics().CountSent(MessageType::kQueryReply);
      reg.GetCounter("query.energy.tx", i)->Inc();
    }
    reg.GetGauge("query.energy.drained")->Add(tx * static_cast<double>(replies));
  }

  // Collect measurements, deduplicating multiple claims per node by latest
  // election epoch (spurious-representative filtering, §3).
  std::map<NodeId, QueryClaim> claims;
  CollectClaims(use_snapshot, reachable_responders, matching, &claims);

  result.covered_nodes = claims.size();
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
    for (const auto& [j, claim] : claims) {
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
    for (const auto& [j, claim] : claims) {
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
    for (const auto& [j, claim] : claims) agg.AddValue(claim.value);
    result.aggregate = agg.Finalize();
    PartialAggregate truth(aggregate);
    for (NodeId i = 0; i < n; ++i) {
      if (matching[i]) truth.AddValue((*agents_)[i]->measurement());
    }
    result.true_aggregate = truth.Finalize();
  } else {
    result.rows.reserve(claims.size());
    for (const auto& [j, claim] : claims) {
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
    for (NodeId r : reachable_responders) {
      prov.tree_depth = std::max(prov.tree_depth, tree.depth(r));
    }
    prov.claims = std::move(claims);
    prov.depth.assign(n, -1);
    for (NodeId i = 0; i < n; ++i) prov.depth[i] = tree.depth(i);
  }

  span.EndSim(sim_->now());
  return result;
}

void QueryExecutor::CollectClaims(bool use_snapshot,
                                  const std::vector<NodeId>& responders,
                                  const std::vector<bool>& matching,
                                  std::map<NodeId, QueryClaim>* claims) const {
  for (NodeId r : responders) {
    const SnapshotAgent& agent = *(*agents_)[r];
    if (matching[r] &&
        (!use_snapshot || agent.mode() != NodeMode::kPassive)) {
      const QueryClaim self{r, kQueryClaimSelfEpoch, agent.measurement(),
                            false};
      auto [it, inserted] = claims->try_emplace(r, self);
      if (!inserted && Supersedes(self, it->second)) it->second = self;
    }
    if (!use_snapshot) continue;
    for (const auto& [j, e] : agent.represents()) {
      if (!matching[j]) continue;
      const std::optional<double> estimate = agent.EstimateFor(j);
      if (!estimate.has_value()) continue;
      const QueryClaim claim{r, e, *estimate, true};
      auto [it, inserted] = claims->try_emplace(j, claim);
      if (!inserted && Supersedes(claim, it->second)) it->second = claim;
    }
  }
}

QueryProvenance QueryExecutor::PlanRegion(
    const Rect& region, bool use_snapshot,
    const ExecutionOptions& options) const {
  const size_t n = agents_->size();
  SNAPQ_CHECK_LT(options.sink, n);
  QueryProvenance plan;

  std::vector<bool> matching(n, false);
  for (NodeId i = 0; i < n; ++i) {
    if (region.Contains(sim_->links().position(i))) {
      matching[i] = true;
      ++plan.matching_nodes;
    }
  }

  // Mirror ExecuteRegion's participation model exactly: the estimate and
  // the actuals must only diverge when the snapshot state itself changes
  // between planning and execution.
  std::vector<bool> alive(n, false);
  for (NodeId i = 0; i < n; ++i) {
    alive[i] = sim_->alive(i);
    if (use_snapshot && options.passive_nodes_sleep && i != options.sink &&
        (*agents_)[i]->mode() == NodeMode::kPassive) {
      alive[i] = false;
    }
  }
  std::vector<bool> favor;
  const std::vector<bool>* favor_ptr = nullptr;
  if (options.favor_representatives) {
    favor.assign(n, false);
    for (NodeId i = 0; i < n; ++i) {
      favor[i] = (*agents_)[i]->mode() == NodeMode::kActive;
    }
    favor_ptr = &favor;
  }
  const RoutingTree tree =
      RoutingTree::Build(sim_->links(), alive, options.sink, favor_ptr);

  const std::vector<NodeId> responders =
      CollectResponders(region, use_snapshot);
  std::vector<bool> participates(n, false);
  std::vector<NodeId> reachable_responders;
  for (NodeId r : responders) {
    if (!tree.IsReachable(r)) continue;
    reachable_responders.push_back(r);
    plan.tree_depth = std::max(plan.tree_depth, tree.depth(r));
    for (NodeId on_path : tree.PathToSink(r)) {
      participates[on_path] = true;
    }
  }
  for (NodeId i = 0; i < n; ++i) {
    if (participates[i]) ++plan.participants;
  }
  plan.responders = reachable_responders.size();
  plan.reachable_nodes = tree.CountReachable();
  plan.messages =
      plan.participants - (participates[options.sink] ? 1u : 0u);
  plan.energy = options.charge_energy
                    ? sim_->config().energy.tx_cost *
                          static_cast<double>(plan.messages)
                    : 0.0;

  CollectClaims(use_snapshot, reachable_responders, matching, &plan.claims);
  plan.depth.assign(n, -1);
  for (NodeId i = 0; i < n; ++i) plan.depth[i] = tree.depth(i);
  return plan;
}

}  // namespace snapq
