#include "snapshot/maintenance.h"

#include <algorithm>

#include "common/check.h"
#include "obs/profiler.h"
#include "snapshot/election.h"

namespace snapq {

MaintenanceDriver::MaintenanceDriver(
    Simulator* sim, std::vector<std::unique_ptr<SnapshotAgent>>* agents,
    Time interval)
    : sim_(sim), agents_(agents), interval_(interval) {
  SNAPQ_CHECK(sim != nullptr && agents != nullptr);
  SNAPQ_CHECK_GT(interval, 0);
}

void MaintenanceDriver::ScheduleRounds(Time first_round, Time horizon,
                                       RoundCallback callback) {
  for (Time t = first_round; t < horizon; t += interval_) {
    sim_->ScheduleAt(t, [this, t, horizon, callback] {
      RunRound(t, horizon, callback);
    });
  }
}

namespace {

/// Total protocol (maintenance + election) messages sent so far; excludes
/// application/data traffic so Fig-15-style accounting is not polluted by
/// query responses flowing between rounds.
uint64_t ProtocolSends(const Metrics& m) {
  uint64_t total = 0;
  for (MessageType t :
       {MessageType::kInvitation, MessageType::kCandList,
        MessageType::kAccept, MessageType::kRecall, MessageType::kStayActive,
        MessageType::kRepAck, MessageType::kHeartbeat,
        MessageType::kHeartbeatReply, MessageType::kResign}) {
    total += m.sent(t);
  }
  return total;
}

}  // namespace

void MaintenanceDriver::RunRound(Time round_start, Time /*horizon*/,
                                 RoundCallback callback) {
  sim_->ResetPerNodeCounters();
  obs::ProfCount(obs::HotOp::kMaintenanceRounds);
  const uint64_t sends_before = ProtocolSends(sim_->metrics());
  // Root cause: this round's heartbeats, replies, timeout re-elections and
  // resignations all trace back here.
  const TraceContext round_ctx =
      sim_->MintTraceRoot(obs::TraceRootKind::kHeartbeatRound, kInvalidNode);
  {
    Simulator::TraceScope scope(*sim_, round_ctx);
    for (auto& agent : *agents_) {
      agent->MaintenanceTick();
    }
  }
  if (sim_->tracer() != nullptr) {
    sim_->tracer()->RecordPhase(round_ctx, "maintenance.tick", round_start,
                                sim_->now());
  }
  sim_->registry()
      .GetHistogram("maintenance.tick.sim_ticks")
      ->Observe(static_cast<double>(sim_->now() - round_start));
  sim_->registry().GetCounter("maintenance.rounds")->Inc();
  if (!callback) return;
  // Measure after the round's re-elections quiesce but before the next
  // round begins.
  const Time settle = std::min<Time>(interval_ - 1, 60);
  sim_->ScheduleAt(round_start + settle,
                   [this, round_start, sends_before, callback] {
    MaintenanceRoundStats stats;
    stats.round_start = round_start;
    const ElectionStats s = SummarizeSnapshot(*sim_);
    stats.snapshot_size = s.num_active;
    stats.num_spurious = s.num_spurious;
    size_t live = 0;
    for (const auto& agent : *agents_) {
      if (sim_->alive(agent->id())) ++live;
    }
    const uint64_t delta = ProtocolSends(sim_->metrics()) - sends_before;
    stats.avg_messages_per_node =
        live == 0 ? 0.0
                  : static_cast<double>(delta) / static_cast<double>(live);

    obs::MetricRegistry& reg = sim_->registry();
    reg.GetGauge("maintenance.snapshot_size")
        ->Set(static_cast<double>(stats.snapshot_size));
    reg.GetHistogram("maintenance.messages_per_node")
        ->Observe(stats.avg_messages_per_node);
    sim_->journal().Emit(
        "maintenance.round", sim_->now(), [&](obs::JournalEvent& e) {
          e.Int("round_start", stats.round_start)
              .Int("snapshot_size", static_cast<int64_t>(stats.snapshot_size))
              .Int("spurious", static_cast<int64_t>(stats.num_spurious))
              .Num("avg_messages_per_node", stats.avg_messages_per_node);
        });
    callback(stats);
  });
}

}  // namespace snapq
