// End-to-end causal tracing over the real protocol stack:
//   * a clean 100-node election honors the paper's ≤ 6 msgs/node bound,
//     and the analyzer's verdict says so;
//   * a model violation detected during a heartbeat round becomes its own
//     trace root, causally linked back to that round, and terminates in
//     re-election traffic (fig13-style spurious-reconfiguration forensics);
//   * USE SNAPSHOT queries are answered only by non-passive nodes;
//   * an election, a maintenance round and a query each record one phase
//     span over their simulated interval;
//   * health sampling feeds the derived gauges.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "api/experiment.h"
#include "api/network.h"
#include "obs/trace_analyzer.h"
#include "obs/tracer.h"
#include "snapshot/election.h"
#include "snapshot/maintenance.h"

namespace snapq {
namespace {

const obs::TraceReport* FindByKind(
    const std::vector<obs::TraceReport>& reports, obs::TraceRootKind kind) {
  for (const obs::TraceReport& r : reports) {
    if (r.root_kind == kind) return &r;
  }
  return nullptr;
}

TEST(TracingIntegrationTest, CleanHundredNodeElectionHonorsMessageBound) {
  SensitivityConfig config;  // the paper's defaults: N=100, P_loss=0
  config.trace_sampling = 1.0;
  const SensitivityOutcome outcome = RunSensitivityTrial(config);
  const obs::Tracer* tracer = outcome.network->tracer();
  ASSERT_NE(tracer, nullptr);

  const obs::TraceAnalyzer analyzer(tracer);
  EXPECT_TRUE(analyzer.FindOrphans().empty());
  const std::vector<obs::TraceReport> reports = analyzer.AnalyzeAll();
  const obs::TraceReport* election =
      FindByKind(reports, obs::TraceRootKind::kElection);
  ASSERT_NE(election, nullptr);
  EXPECT_GT(election->num_messages, 0u);
  EXPECT_LE(election->max_messages_per_node,
            obs::TraceAnalyzer::kElectionMessageBound);
  ASSERT_EQ(election->verdicts.size(), 1u);
  EXPECT_EQ(election->verdicts[0].invariant, "election.message_bound");
  EXPECT_TRUE(election->verdicts[0].pass) << election->ToString();
}

TEST(TracingIntegrationTest, SnapshotQueryAnsweredOnlyByRepresentatives) {
  SensitivityConfig config;
  config.num_nodes = 30;
  config.num_classes = 5;
  config.trace_sampling = 1.0;
  const SensitivityOutcome outcome = RunSensitivityTrial(config);
  SensorNetwork& net = *outcome.network;
  ASSERT_TRUE(
      net.Query("SELECT avg(value) FROM sensors WHERE loc IN EVERYWHERE "
                "USE SNAPSHOT")
          .ok());

  const obs::TraceAnalyzer analyzer(net.tracer());
  const std::vector<obs::TraceReport> reports = analyzer.AnalyzeAll();
  const obs::TraceReport* query =
      FindByKind(reports, obs::TraceRootKind::kQuery);
  ASSERT_NE(query, nullptr);
  ASSERT_EQ(query->verdicts.size(), 1u);
  EXPECT_EQ(query->verdicts[0].invariant, "query.snapshot_responders");
  EXPECT_TRUE(query->verdicts[0].pass) << query->ToString();
}

TEST(TracingIntegrationTest,
     ViolationRootLinksToHeartbeatRoundAndEndsInReelection) {
  // Three nodes, taught pairwise models, one representative. Drifting the
  // passive nodes' values makes the rep's heartbeat-reply estimate miss by
  // far more than T, so the next maintenance round detects a violation.
  SnapshotConfig cfg;
  cfg.threshold = 1.0;
  cfg.max_wait = 4;
  cfg.heartbeat_timeout = 2;
  cfg.heartbeat_miss_limit = 1;
  Simulator sim({{0.0, 0.0}, {0.05, 0.0}, {0.1, 0.0}}, {10.0, 10.0, 10.0},
                SimConfig{});
  obs::TracerConfig tracer_config;
  tracer_config.sampling = 1.0;
  obs::Tracer tracer(tracer_config);
  sim.SetTracer(&tracer);
  std::vector<std::unique_ptr<SnapshotAgent>> agents;
  for (NodeId i = 0; i < 3; ++i) {
    agents.push_back(std::make_unique<SnapshotAgent>(i, &sim, cfg, 700 + i));
    agents.back()->Install();
  }
  for (NodeId i = 0; i < 3; ++i) agents[i]->SetMeasurement(10.0 + i);
  for (NodeId i = 0; i < 3; ++i) {
    for (NodeId j = 0; j < 3; ++j) {
      if (i == j) continue;
      const double vi = agents[i]->measurement();
      const double vj = agents[j]->measurement();
      agents[i]->models().cache().Observe(j, vi - 1, vj - 1, 0);
      agents[i]->models().cache().Observe(j, vi + 1, vj + 1, 0);
    }
  }
  RunGlobalElection(sim, agents, sim.now(), cfg);
  ASSERT_EQ(CaptureSnapshot(sim).CountActive(), 1u);

  const SnapshotView view = CaptureSnapshot(sim);
  for (NodeId i = 0; i < 3; ++i) {
    if (view.node(i).mode == NodeMode::kPassive) {
      agents[i]->SetMeasurement(10000.0 + i);
    }
  }
  MaintenanceDriver driver(&sim, &agents, /*interval=*/50);
  driver.ScheduleRounds(sim.now() + 1, sim.now() + 2, {});
  sim.RunAll();

  const obs::TraceAnalyzer analyzer(&tracer);
  EXPECT_TRUE(analyzer.FindOrphans().empty());
  const std::vector<obs::TraceReport> reports = analyzer.AnalyzeAll();
  const obs::TraceReport* round =
      FindByKind(reports, obs::TraceRootKind::kHeartbeatRound);
  ASSERT_NE(round, nullptr);
  const obs::TraceReport* violation =
      FindByKind(reports, obs::TraceRootKind::kViolation);
  ASSERT_NE(violation, nullptr);

  // The violation is causally linked to the heartbeat round whose reply
  // exposed the broken model...
  EXPECT_EQ(violation->link_trace_id, round->trace_id);
  const obs::TraceSpan* linked = tracer.FindSpan(violation->link_span_id);
  ASSERT_NE(linked, nullptr);
  EXPECT_EQ(linked->trace_id, round->trace_id);
  // ...and its trace contains the re-election traffic it triggered.
  EXPECT_GT(violation->messages_by_type[static_cast<size_t>(
                MessageType::kInvitation)],
            0u);
  ASSERT_EQ(violation->verdicts.size(), 1u);
  EXPECT_EQ(violation->verdicts[0].invariant, "violation.termination");
  EXPECT_TRUE(violation->verdicts[0].pass) << violation->ToString();
}

TEST(TracingIntegrationTest, EachPhaseRecordsOneSpanOverItsInterval) {
  SensitivityConfig config;
  config.num_nodes = 30;
  config.num_classes = 3;
  config.trace_sampling = 1.0;
  SensitivityOutcome outcome = RunSensitivityTrial(config);
  SensorNetwork& net = *outcome.network;
  const SnapshotConfig& snap = net.agents()[0]->config();
  const Time round = net.now() + 1;
  net.ScheduleMaintenance(round, round + 1, 10);
  net.RunUntil(round);
  ExecutionOptions options;
  options.sink = 0;
  net.executor().ExecuteRegion(Rect{0.0, 0.0, 1.0, 1.0}, /*use_snapshot=*/true,
                               AggregateFunction::kAvg, options);

  struct Expected {
    const char* name;
    obs::TraceRootKind root;
    Time begin;
    Time end;
  };
  const Time t0 = config.discovery_time;
  const Expected expected[] = {
      {"election", obs::TraceRootKind::kElection, t0,
       t0 + 3 + snap.max_wait + snap.rule4_hard_cap + 2},
      {"maintenance.tick", obs::TraceRootKind::kHeartbeatRound, round, round},
      {"query.execute", obs::TraceRootKind::kQuery, round, round},
  };
  const obs::Tracer& tracer = *net.tracer();
  std::vector<const obs::TraceSpan*> phases;
  for (const obs::TraceSpan& span : tracer.spans()) {
    if (span.kind == obs::TraceSpanKind::kPhase) phases.push_back(&span);
  }
  ASSERT_EQ(phases.size(), 3u);
  for (size_t i = 0; i < phases.size(); ++i) {
    const obs::TraceSpan& span = *phases[i];
    EXPECT_EQ(span.name, expected[i].name);
    EXPECT_EQ(span.start, expected[i].begin) << span.name;
    EXPECT_EQ(span.end, expected[i].end) << span.name;
    // The phase hangs directly off its own trace's root.
    const obs::TraceSpan* root = tracer.FindSpan(span.parent_span_id);
    ASSERT_NE(root, nullptr) << span.name;
    EXPECT_EQ(root->kind, obs::TraceSpanKind::kRoot);
    EXPECT_EQ(root->root_kind, expected[i].root) << span.name;
    EXPECT_EQ(root->trace_id, span.trace_id);
  }
}

TEST(TracingIntegrationTest, HealthSamplingDerivesGauges) {
  SensitivityConfig config;
  config.num_nodes = 30;
  config.num_classes = 5;
  const SensitivityOutcome outcome = RunSensitivityTrial(config);
  SensorNetwork& net = *outcome.network;
  const obs::HealthSample sample = net.SampleHealth();
  ASSERT_NE(net.health_monitor(), nullptr);
  EXPECT_EQ(net.health_monitor()->num_samples(), 1u);
  EXPECT_EQ(sample.num_live, 30u);
  EXPECT_EQ(sample.num_active + sample.num_passive + sample.num_undefined,
            30u);

  obs::MetricRegistry& reg = net.sim().registry();
  const double coverage = reg.GetGauge("health.coverage")->value();
  EXPECT_DOUBLE_EQ(coverage,
                   static_cast<double>(sample.num_active +
                                       sample.num_passive) /
                       30.0);
  // After a full election everyone is inside the snapshot.
  EXPECT_DOUBLE_EQ(coverage, 1.0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("health.spurious_reps")->value(),
                   static_cast<double>(sample.num_spurious));
  EXPECT_GE(reg.GetGauge("health.model_staleness")->value(), 0.0);
  // A second sample right away sees no new violations/re-elections.
  net.SampleHealth();
  EXPECT_DOUBLE_EQ(reg.GetGauge("health.violation_rate")->value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("health.reelection_rate")->value(), 0.0);
}

}  // namespace
}  // namespace snapq
