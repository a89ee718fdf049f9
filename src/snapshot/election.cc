#include "snapshot/election.h"

#include <algorithm>

#include "common/check.h"
#include "obs/profiler.h"

namespace snapq {

SnapshotView CaptureSnapshot(const Simulator& sim) {
  const RepresentationIndex& index = sim.representation();
  std::vector<SnapshotView::NodeInfo> rows(index.num_nodes());
  std::vector<SnapshotView::Entry> entries;
  // Reps in id order, each chain in member order: the entries come out
  // sorted by (rep, member).
  for (NodeId r = 0; r < rows.size(); ++r) {
    const RepresentationIndex::Node& own = index.node(r);
    rows[r] = {own.mode, own.representative, own.epoch, sim.alive(r)};
    for (const auto& [j, e] : index.MembersOf(r)) entries.push_back({r, j, e});
  }
  return SnapshotView(std::move(rows), std::move(entries));
}

ElectionStats SummarizeSnapshot(const Simulator& sim) {
  const SnapshotView view = CaptureSnapshot(sim);
  ElectionStats stats;
  stats.num_active = view.CountActive();
  stats.num_passive = view.CountPassive();
  stats.num_undefined = view.CountUndefined();
  stats.num_spurious = view.CountSpurious();

  size_t live = 0;
  uint64_t total_msgs = 0;
  uint64_t max_msgs = 0;
  for (NodeId i = 0; i < sim.num_nodes(); ++i) {
    if (!sim.alive(i)) continue;
    ++live;
    const uint64_t sent = sim.messages_sent_by(i);
    total_msgs += sent;
    max_msgs = std::max(max_msgs, sent);
  }
  if (live > 0) {
    stats.avg_messages_per_node =
        static_cast<double>(total_msgs) / static_cast<double>(live);
  }
  stats.max_messages_per_node = static_cast<double>(max_msgs);
  return stats;
}

ElectionStats RunGlobalElection(
    Simulator& sim,
    const std::vector<std::unique_ptr<SnapshotAgent>>& agents, Time t0,
    const SnapshotConfig& config) {
  SNAPQ_CHECK_GE(t0, sim.now());
  obs::ProfCount(obs::HotOp::kElectionRounds);
  sim.journal().Emit("election.start", t0, [&](obs::JournalEvent& e) {
    e.Int("nodes", static_cast<int64_t>(agents.size()));
  });
  // Root cause: the whole discovery (every invitation, candidate list and
  // refinement message) hangs off this trace.
  const TraceContext root =
      sim.MintTraceRoot(obs::TraceRootKind::kElection, kInvalidNode);
  {
    Simulator::TraceScope scope(sim, root);
    sim.ScheduleAt(t0, [&sim] { sim.ResetPerNodeCounters(); });
    for (const auto& agent : agents) {
      agent->BeginElection(t0);
    }
  }
  // Refinement ends by the Rule-4 hard cap; two extra units cover in-flight
  // acknowledgments scheduled on the final tick.
  const Time bound = t0 + 3 + config.max_wait + config.rule4_hard_cap + 2;
  sim.RunUntil(bound);
  const Time end = sim.now();

  const ElectionStats stats = SummarizeSnapshot(sim);

  // Per-node election cost (the paper's §4 bound: at most 6 messages per
  // node). Gauges so a later election overwrites, and so cross-run merges
  // keep the high-watermark; the histogram accumulates the distribution.
  obs::MetricRegistry& reg = sim.registry();
  reg.GetCounter("election.runs")->Inc();
  obs::LogHistogram* per_node =
      reg.GetHistogram("election.messages_per_node");
  for (const auto& agent : agents) {
    if (!sim.alive(agent->id())) continue;
    const double sent =
        static_cast<double>(sim.messages_sent_by(agent->id()));
    reg.GetGauge("election.messages_sent", agent->id())->Set(sent);
    per_node->Observe(sent);
  }
  reg.GetGauge("election.snapshot_size")
      ->Set(static_cast<double>(stats.num_active));

  sim.journal().Emit("election.done", sim.now(), [&](obs::JournalEvent& e) {
    e.Int("active", static_cast<int64_t>(stats.num_active))
        .Int("passive", static_cast<int64_t>(stats.num_passive))
        .Int("undefined", static_cast<int64_t>(stats.num_undefined))
        .Int("spurious", static_cast<int64_t>(stats.num_spurious))
        .Num("avg_messages_per_node", stats.avg_messages_per_node)
        .Num("max_messages_per_node", stats.max_messages_per_node);
  });
  // The phase span is recorded last, after everything the election traced.
  if (sim.tracer() != nullptr) {
    sim.tracer()->RecordPhase(root, "election", t0, end);
  }
  reg.GetHistogram("election.sim_ticks")
      ->Observe(static_cast<double>(end - t0));
  return stats;
}

}  // namespace snapq
