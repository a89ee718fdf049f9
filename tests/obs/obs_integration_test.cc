// End-to-end observability: run the paper's standard trial and check that
// the protocol layers actually populated the registry and journal — the
// per-node election gauges respect the §4 six-message bound, each phase
// recorded its simulated duration, and the journal's JSONL parses back
// with attribution.
#include <gtest/gtest.h>

#include <memory>

#include "api/experiment.h"
#include "obs/journal.h"
#include "obs/metric_registry.h"

namespace snapq {
namespace {

SensitivityConfig SmallConfig() {
  SensitivityConfig config;
  config.num_nodes = 30;
  config.num_classes = 3;
  config.seed = 5;
  return config;
}

TEST(ObsIntegrationTest, ElectionPopulatesPerNodeGauges) {
  SensitivityOutcome outcome = RunSensitivityTrial(SmallConfig());
  obs::MetricRegistry& reg = outcome.network->sim().registry();
  EXPECT_EQ(reg.GetCounter("election.runs")->value(), 1u);

  // Every node has its gauge (reading them registers nothing new).
  const size_t instruments = reg.num_instruments();
  for (NodeId i = 0; i < SmallConfig().num_nodes; ++i) {
    // §4: the election costs each node at most six messages.
    EXPECT_LE(reg.GetGauge("election.messages_sent", i)->value(), 6.0)
        << "node " << i;
  }
  EXPECT_EQ(reg.num_instruments(), instruments);

  // The histogram saw every live node.
  obs::LogHistogram* per_node = reg.GetHistogram("election.messages_per_node");
  EXPECT_EQ(per_node->count(), SmallConfig().num_nodes);
  EXPECT_LE(per_node->max_seen(), 6.0);
}

TEST(ObsIntegrationTest, MetricsFacadeSharesTheRegistry) {
  SensitivityOutcome outcome = RunSensitivityTrial(SmallConfig());
  Simulator& sim = outcome.network->sim();
  // The façade's counters and the registry's named instruments are the
  // same storage.
  EXPECT_EQ(sim.metrics().total_sent(),
            sim.registry().GetCounter("net.sent")->value());
  EXPECT_GT(sim.metrics().total_sent(), 0u);
  // The election-phase delta captured in the outcome is bounded by the
  // run's total traffic.
  EXPECT_GT(outcome.election_traffic.total_sent, 0u);
  EXPECT_LE(outcome.election_traffic.total_sent,
            sim.metrics().total_sent());
  EXPECT_GT(
      outcome.election_traffic.sent[static_cast<size_t>(
          MessageType::kInvitation)],
      0u);
}

TEST(ObsIntegrationTest, JournalCapturesElectionWithAttribution) {
  SensitivityConfig config = SmallConfig();
  auto network = BuildSensitivityNetwork(config);
  auto* sink = static_cast<obs::MemoryJournalSink*>(
      network->sim().journal().SetSink(
          std::make_unique<obs::MemoryJournalSink>()));
  network->RunUntil(config.discovery_time);
  network->RunElection(config.discovery_time);

  size_t mode_events = 0;
  bool saw_done = false;
  for (const std::string& line : sink->lines()) {
    const std::optional<obs::JournalEvent> event =
        obs::JournalEvent::Parse(line);
    ASSERT_TRUE(event.has_value()) << line;
    if (event->name() == "election.mode") {
      ++mode_events;
      EXPECT_TRUE(event->GetInt("node").has_value());
      EXPECT_TRUE(event->GetInt("epoch").has_value());
      const std::optional<std::string> mode = event->GetStr("mode");
      ASSERT_TRUE(mode.has_value());
      EXPECT_TRUE(*mode == "active" || *mode == "passive");
    } else if (event->name() == "election.done") {
      saw_done = true;
      EXPECT_LE(event->GetNum("max_messages_per_node").value_or(99.0), 6.0);
    }
  }
  // Every node settles into a mode at least once.
  EXPECT_GE(mode_events, config.num_nodes);
  EXPECT_TRUE(saw_done);
  EXPECT_EQ(network->sim().journal().events_emitted(),
            sink->lines().size());
}

TEST(ObsIntegrationTest, TrialsMergeIntoGlobalRegistry) {
  const uint64_t before =
      obs::GlobalMetrics().GetCounter("election.runs")->value();
  RunSensitivityTrial(SmallConfig());
  RunSensitivityTrial(SmallConfig());
  obs::MetricRegistry& global = obs::GlobalMetrics();
  EXPECT_EQ(global.GetCounter("election.runs")->value(), before + 2);
  // Merged gauges are high-watermarks, so the bound survives aggregation.
  const size_t instruments = global.num_instruments();
  for (NodeId i = 0; i < SmallConfig().num_nodes; ++i) {
    EXPECT_LE(global.GetGauge("election.messages_sent", i)->value(), 6.0)
        << "node " << i;
  }
  EXPECT_EQ(global.num_instruments(), instruments);
}

TEST(ObsIntegrationTest, QueryExecutionInstrumented) {
  SensitivityOutcome outcome = RunSensitivityTrial(SmallConfig());
  SensorNetwork& net = *outcome.network;
  obs::MetricRegistry& reg = net.sim().registry();
  const uint64_t before = reg.GetCounter("query.executions")->value();

  ExecutionOptions options;
  options.sink = 0;
  const Rect region{0.0, 0.0, 1.0, 1.0};
  net.executor().ExecuteRegion(region, /*use_snapshot=*/true,
                               AggregateFunction::kAvg, options);
  EXPECT_EQ(reg.GetCounter("query.executions")->value(), before + 1);
  EXPECT_GE(reg.GetCounter("query.snapshot_executions")->value(), 1u);
  obs::LogHistogram* participants = reg.GetHistogram("query.participants");
  EXPECT_GE(participants->count(), 1u);
}

TEST(ObsIntegrationTest, EachPhaseRecordsItsSimulatedDuration) {
  // An election, a maintenance round and a query each add one
  // "<phase>.sim_ticks" observation: the simulated time the phase spanned.
  const SensitivityConfig config = SmallConfig();
  SensitivityOutcome outcome = RunSensitivityTrial(config);
  SensorNetwork& net = *outcome.network;
  obs::MetricRegistry& reg = net.sim().registry();
  const SnapshotConfig& snap = net.agents()[0]->config();
  // The election runs from discovery_time to its refinement bound.
  const obs::LogHistogram* election = reg.GetHistogram("election.sim_ticks");
  EXPECT_EQ(election->count(), 1u);
  EXPECT_EQ(election->sum(),
            static_cast<double>(3 + snap.max_wait + snap.rule4_hard_cap + 2));

  // A maintenance tick and a query run at one instant.
  const Time round = net.now() + 1;
  net.ScheduleMaintenance(round, round + 1, 10);
  net.RunUntil(round);
  const obs::LogHistogram* tick =
      reg.GetHistogram("maintenance.tick.sim_ticks");
  EXPECT_EQ(tick->count(), 1u);
  EXPECT_EQ(tick->sum(), 0.0);

  ExecutionOptions options;
  options.sink = 0;
  net.executor().ExecuteRegion(Rect{0.0, 0.0, 1.0, 1.0}, /*use_snapshot=*/true,
                               AggregateFunction::kAvg, options);
  const obs::LogHistogram* query = reg.GetHistogram("query.execute.sim_ticks");
  EXPECT_EQ(query->count(), 1u);
  EXPECT_EQ(query->sum(), 0.0);
}

}  // namespace
}  // namespace snapq
