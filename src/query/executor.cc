#include "query/executor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <vector>

#include "common/check.h"
#include "obs/accuracy.h"
#include "obs/profiler.h"
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
  const size_t words = (n + 63) / 64;
  matching_.words.assign(words, 0);
  matched_.reserve(n);
  sorter_.words.assign(words, 0);
  alive_.assign(n, false);
  for (NodeId i = 0; i < n; ++i) alive_[i] = sim->alive(i);
  deaths_seen_ = sim->deaths().size();
  awake_.assign(n, false);
  sleep_.assign(n, false);
  favor_.assign(n, false);
  on_path_.words.assign(words, 0);
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

void QueryExecutor::NodeBits::AppendTo(std::vector<NodeId>* out) const {
  for (size_t w = 0; w < words.size(); ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      out->push_back(static_cast<NodeId>(
          w * 64 + static_cast<size_t>(std::countr_zero(bits))));
    }
  }
}

void QueryExecutor::SortIds(std::vector<NodeId>* ids) const {
  for (const NodeId i : *ids) sorter_.Set(i);
  ids->clear();
  sorter_.AppendTo(ids);
  for (const NodeId i : *ids) sorter_.Clear(i);
}

void QueryExecutor::CollectResponders(bool use_snapshot,
                                      std::vector<NodeId>* out) const {
  out->clear();
  for (const NodeId j : matched_) {
    if (sim_->alive(j) &&
        (!use_snapshot || (*agents_)[j]->mode() != NodeMode::kPassive)) {
      out->push_back(j);
    }
    if (!use_snapshot) continue;
    // Snapshot rule (§3.1): a live node also responds when it represents
    // a matching node, dead or alive.
    sim_->representation().ForEachRep(j, [&](NodeId r) {
      if (sim_->alive(r)) out->push_back(r);
    });
  }
  if (use_snapshot) SortIds(out);  // matched_ is ascending already
}

const RoutingTree& QueryExecutor::TreeFor(NodeId sink, bool sleeping,
                                          bool favored) const {
  const LinkModel& links = sim_->links();
  const uint64_t version = links.version();
  const std::span<const NodeId> deaths = sim_->deaths();
  // The cache keeps one entry per (sink, sleeping, favored); a rebuild
  // for new sleep or favor bits replaces it.
  CachedTree* same = nullptr;
  for (CachedTree& entry : trees_) {
    if (entry.sink == sink && entry.sleeping == sleeping &&
        entry.favored == favored) {
      same = &entry;
      break;
    }
  }
  // Same sleepers and favor bits: the entry differs at most in geometry
  // and deaths.
  const bool same_bits = same != nullptr &&
                         (!sleeping || same->sleep == sleep_) &&
                         (!favored || same->favor == favor_);
  if (same_bits && same->links_version == version &&
      same->deaths == deaths.size()) {
    ++route_stats_.hits;
    return same->tree;
  }
  const std::vector<bool>& routable = sleeping ? awake_ : alive_;
  const std::vector<bool>* favor = favored ? &favor_ : nullptr;
  changed_.clear();
  if (same_bits && links.ChangedSince(same->links_version, &changed_)) {
    SNAPQ_DCHECK(same->deaths <= deaths.size());
    same->tree.Repair(links, routable, changed_, deaths.subspan(same->deaths),
                      favor, &repair_scratch_);
    same->links_version = version;
    same->deaths = deaths.size();
    ++route_stats_.repairs;
    return same->tree;
  }
  ++route_stats_.builds;
  CachedTree fresh{sink,
                   version,
                   deaths.size(),
                   sleeping,
                   favored,
                   sleeping ? sleep_ : std::vector<bool>{},
                   favored ? favor_ : std::vector<bool>{},
                   RoutingTree::Build(links, routable, sink, favor)};
  if (same != nullptr) {
    *same = std::move(fresh);
    return same->tree;
  }
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
    const Rect& region, bool use_snapshot,
    const ExecutionOptions& options) const {
  const size_t n = agents_->size();
  SNAPQ_CHECK_LT(options.sink, n);
  const LinkModel& links = sim_->links();

  // Coverage denominator: every placed node matching the predicate (dead
  // included — an infinite-battery network would have heard them all),
  // found through the grid and kept in ascending id order.
  for (const NodeId j : matched_) matching_.Clear(j);
  matched_.clear();
  links.spatial_index().ForEachCandidateInRect(region, [&](NodeId i) {
    if (region.Contains(links.position(i))) matching_.Set(i);
  });
  matching_.AppendTo(&matched_);

  const std::span<const NodeId> deaths = sim_->deaths();
  for (; deaths_seen_ < deaths.size(); ++deaths_seen_) {
    alive_[deaths[deaths_seen_]] = false;
  }
  const bool sleeping = use_snapshot && options.passive_nodes_sleep;
  if (sleeping) {
    for (NodeId i = 0; i < n; ++i) {
      // Sleeping passive nodes neither respond nor route; the sink stays.
      sleep_[i] = i != options.sink &&
                  (*agents_)[i]->mode() == NodeMode::kPassive;
      awake_[i] = alive_[i] && !sleep_[i];
    }
  }
  if (options.favor_representatives) {
    for (NodeId i = 0; i < n; ++i) {
      favor_[i] = (*agents_)[i]->mode() == NodeMode::kActive;
    }
  }
  const RoutingTree& tree =
      TreeFor(options.sink, sleeping, options.favor_representatives);

  CollectResponders(use_snapshot, &reachable_);
  // A responder the flood never reaches never hears the request.
  std::erase_if(reachable_,
                [&](NodeId r) { return !tree.IsReachable(r); });

  // Participants: reachable responders plus the routers on their paths
  // (the paper counts routing nodes as participants). Each walk stops at
  // the first node an earlier walk marked, so the pass is O(participants).
  for (NodeId i : participants_) on_path_.Clear(i);
  participants_.clear();
  for (NodeId r : reachable_) {
    for (NodeId v = r; v != kInvalidNode && !on_path_.Test(v);
         v = tree.parent(v)) {
      on_path_.Set(v);
    }
  }
  on_path_.AppendTo(&participants_);
  return tree;
}

QueryResult QueryExecutor::ExecuteRegion(const Rect& region,
                                         bool use_snapshot,
                                         AggregateFunction aggregate,
                                         const ExecutionOptions& options) {
  const size_t n = agents_->size();
  SNAPQ_CHECK_LT(options.sink, n);
  obs::ProfCount(obs::HotOp::kQueriesExecuted);
  const Time begin = sim_->now();
  // Root cause: the injected query. `value` records the USE SNAPSHOT flag
  // so the analyzer knows which invariant applies.
  const TraceContext qroot = sim_->MintTraceRoot(
      obs::TraceRootKind::kQuery, options.sink, use_snapshot ? 1 : 0);
  Simulator::TraceScope trace_scope(*sim_, qroot);
  QueryResult result;

  const RoutingTree& tree = PlanParticipation(region, use_snapshot, options);
  result.matching_nodes = matched_.size();
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
    ins.executions = reg.GetCounter("query.executions");
    ins.participants = reg.GetHistogram("query.participants");
    ins.responders = reg.GetHistogram("query.responders");
    ins.sim_ticks = reg.GetHistogram("query.execute.sim_ticks");
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
      result.participants - (on_path_.Test(options.sink) ? 1u : 0u);

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
    for (const NodeId j : matched_) {
      truth.AddValue((*agents_)[j]->measurement());
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
    *options.provenance = Provenance(tree, options);
  }

  if (sim_->tracer() != nullptr) {
    sim_->tracer()->RecordPhase(qroot, "query.execute", begin, sim_->now());
  }
  ins.sim_ticks->Observe(static_cast<double>(sim_->now() - begin));
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
    if (matching_.Test(r) &&
        (!use_snapshot || agent.mode() != NodeMode::kPassive)) {
      offer(r, QueryClaim{r, kQueryClaimSelfEpoch, agent.measurement(),
                          false});
    }
    if (!use_snapshot) continue;
    for (const auto& [j, e] : agent.represents()) {
      if (!matching_.Test(j)) continue;
      const std::optional<double> estimate = agent.EstimateFor(j);
      if (!estimate.has_value()) continue;
      offer(j, QueryClaim{r, e, *estimate, true});
    }
  }
  SortIds(&claimed_);
}

QueryProvenance QueryExecutor::Provenance(
    const RoutingTree& tree, const ExecutionOptions& options) const {
  QueryProvenance prov;
  prov.matching_nodes = matched_.size();
  prov.responders = reachable_.size();
  prov.participants = participants_.size();
  prov.reachable_nodes = tree.CountReachable();
  prov.messages =
      prov.participants - (on_path_.Test(options.sink) ? 1u : 0u);
  prov.energy = options.charge_energy
                    ? sim_->config().energy.tx_cost *
                          static_cast<double>(prov.messages)
                    : 0.0;
  for (NodeId r : reachable_) {
    prov.tree_depth = std::max(prov.tree_depth, tree.depth(r));
  }
  for (NodeId j : claimed_) {
    prov.claims.emplace_hint(prov.claims.end(), j, claims_[j]);
  }
  const size_t n = agents_->size();
  prov.depth.resize(n);
  for (NodeId i = 0; i < n; ++i) prov.depth[i] = tree.depth(i);
  return prov;
}

QueryProvenance QueryExecutor::PlanRegion(
    const Rect& region, bool use_snapshot,
    const ExecutionOptions& options) const {
  // Shares ExecuteRegion's participation pass and provenance fill exactly:
  // the estimate and the actuals must only diverge when the snapshot state
  // itself changes between planning and execution.
  const RoutingTree& tree = PlanParticipation(region, use_snapshot, options);
  CollectClaims(use_snapshot);
  return Provenance(tree, options);
}

}  // namespace snapq
