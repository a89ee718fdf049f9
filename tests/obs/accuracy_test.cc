// The ground-truth accuracy auditor: violation counting against the
// round's effective threshold, the tumbling budget window behind the
// violation_rate / budget_burn gauges, per-node and per-reporter
// attribution, the frozen `accuracy_audit` journal event, and the shell
// table rendering.
#include "obs/accuracy.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/journal.h"
#include "obs/metric_registry.h"

namespace snapq::obs {
namespace {

class AccuracyAuditorTest : public ::testing::Test {
 protected:
  MetricRegistry registry_;
};

TEST_F(AccuracyAuditorTest, CountsViolationsAgainstTheRoundThreshold) {
  AccuracyAuditor audit(/*num_nodes=*/4, &registry_);
  audit.BeginRound(AuditSource::kQuery, /*origin=*/0, /*threshold=*/1.0,
                   /*t=*/0);
  audit.ObserveEstimate(1, 0, /*signed_error=*/0.5, /*distance=*/0.25);
  audit.ObserveEstimate(2, 0, /*signed_error=*/-2.0, /*distance=*/4.0);
  audit.ObserveEstimate(3, 0, /*signed_error=*/1.0, /*distance=*/1.0);
  audit.EndRound();

  EXPECT_EQ(audit.audited_total(), 3u);
  // distance > T strictly: 4.0 violates, 1.0 (== T) does not.
  EXPECT_EQ(audit.violations_total(), 1u);
  EXPECT_EQ(audit.rounds(), 1u);
  EXPECT_DOUBLE_EQ(audit.violation_rate(), 1.0 / 3.0);
  EXPECT_EQ(audit.error_histogram().count(), 3u);
  EXPECT_DOUBLE_EQ(audit.error_histogram().max_seen(), 2.0);
}

TEST_F(AccuracyAuditorTest, EachRoundJudgesAgainstItsOwnEffectiveT) {
  // A per-query USE SNAPSHOT ERROR override tightens T for that round
  // only; the same residual can pass under the deployment T and violate
  // under the override.
  AccuracyAuditor audit(2, &registry_);
  audit.BeginRound(AuditSource::kQuery, 0, /*threshold=*/1.0, 0);
  audit.ObserveEstimate(1, 0, 0.7, 0.49);
  audit.EndRound();
  EXPECT_EQ(audit.violations_total(), 0u);

  audit.BeginRound(AuditSource::kQuery, 0, /*threshold=*/0.25, 1);
  audit.ObserveEstimate(1, 0, 0.7, 0.49);
  audit.EndRound();
  EXPECT_EQ(audit.violations_total(), 1u);
}

TEST_F(AccuracyAuditorTest, BudgetWindowTumblesAndResetsTheRate) {
  // The constant budget window is 100 ticks with a 1% error budget.
  ASSERT_EQ(kAccuracyWindow, 100);
  AccuracyAuditor audit(2, &registry_);

  audit.BeginRound(AuditSource::kSweep, -1, 1.0, /*t=*/10);
  audit.ObserveEstimate(1, 0, 3.0, 9.0);  // violation
  audit.EndRound();
  EXPECT_DOUBLE_EQ(audit.violation_rate(), 1.0);
  EXPECT_DOUBLE_EQ(audit.budget_burn(), 1.0 / kAccuracyErrorBudget);

  // Same window: the rate accumulates.
  audit.BeginRound(AuditSource::kSweep, -1, 1.0, /*t=*/90);
  audit.ObserveEstimate(1, 0, 0.1, 0.01);
  audit.EndRound();
  EXPECT_DOUBLE_EQ(audit.violation_rate(), 0.5);
  EXPECT_DOUBLE_EQ(audit.budget_burn(), 0.5 / kAccuracyErrorBudget);

  // t=250 starts a new window (aligned to multiples of 100): the window
  // rate resets, the cumulative totals do not.
  audit.BeginRound(AuditSource::kSweep, -1, 1.0, /*t=*/250);
  audit.ObserveEstimate(1, 0, 0.1, 0.01);
  audit.EndRound();
  EXPECT_DOUBLE_EQ(audit.violation_rate(), 0.0);
  EXPECT_DOUBLE_EQ(audit.budget_burn(), 0.0);
  EXPECT_EQ(audit.violations_total(), 1u);
  EXPECT_EQ(audit.audited_total(), 3u);
}

TEST_F(AccuracyAuditorTest, ExposesGaugesAndCountersOnTheRegistry) {
  AccuracyAuditor audit(2, &registry_);
  // Registered at construction: visible to telemetry/SLOs before the
  // first round.
  EXPECT_DOUBLE_EQ(registry_.GetGauge("accuracy.violation_rate")->value(),
                   0.0);

  audit.BeginRound(AuditSource::kQuery, 0, 1.0, 0);
  audit.ObserveEstimate(1, 0, 2.0, 4.0);
  audit.ObserveEstimate(0, 1, 0.5, 0.25);
  audit.EndRound();

  EXPECT_DOUBLE_EQ(registry_.GetGauge("accuracy.violation_rate")->value(),
                   0.5);
  EXPECT_DOUBLE_EQ(registry_.GetGauge("accuracy.budget_burn")->value(),
                   0.5 / kAccuracyErrorBudget);
  EXPECT_DOUBLE_EQ(registry_.GetGauge("accuracy.max_abs_error")->value(), 2.0);
  EXPECT_DOUBLE_EQ(registry_.GetGauge("accuracy.mean_abs_error")->value(),
                   1.25);
  EXPECT_EQ(registry_.GetCounter("accuracy.audited")->value(), 2u);
  EXPECT_EQ(registry_.GetCounter("accuracy.violations")->value(), 1u);
  EXPECT_EQ(registry_.GetCounter("accuracy.rounds")->value(), 1u);
}

TEST_F(AccuracyAuditorTest, AttributesErrorsPerNodeAndPerReporter) {
  AccuracyAuditor audit(4, &registry_);
  audit.BeginRound(AuditSource::kQuery, 0, 1.0, 0);
  audit.ObserveEstimate(/*node=*/1, /*reporter=*/3, -2.0, 4.0);
  audit.ObserveEstimate(/*node=*/2, /*reporter=*/3, 0.5, 0.25);
  audit.EndRound();
  audit.BeginRound(AuditSource::kSweep, -1, 1.0, 1);
  audit.ObserveEstimate(/*node=*/1, /*reporter=*/3, -0.25, 0.0625);
  audit.EndRound();

  const AuditNodeStats n1 = audit.NodeStats(1);
  EXPECT_EQ(n1.audited, 2u);
  EXPECT_EQ(n1.violations, 1u);
  EXPECT_DOUBLE_EQ(n1.last_error, -0.25);
  EXPECT_DOUBLE_EQ(n1.mean_abs_error, (2.0 + 0.25) / 2.0);
  EXPECT_DOUBLE_EQ(n1.max_abs_error, 2.0);

  EXPECT_EQ(audit.NodeStats(0).audited, 0u);
  EXPECT_EQ(audit.ReporterViolations(3), 1u);  // the 4(c) byzantine signal
  EXPECT_EQ(audit.ReporterViolations(0), 0u);
}

TEST_F(AccuracyAuditorTest, EmitsTheFrozenJournalEventPerRound) {
  EventJournal journal;
  auto* sink = static_cast<MemoryJournalSink*>(
      journal.SetSink(std::make_unique<MemoryJournalSink>()));

  AccuracyAuditor audit(4, &registry_, &journal);
  audit.BeginRound(AuditSource::kQuery, /*origin=*/2, /*threshold=*/0.5,
                   /*t=*/7);
  audit.ObserveEstimate(1, 0, 1.5, 2.25);
  audit.ObserveEstimate(3, 0, 0.25, 0.0625);
  audit.EndRound();

  ASSERT_EQ(sink->lines().size(), 1u);
  std::optional<JournalEvent> event = JournalEvent::Parse(sink->lines()[0]);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->name(), "accuracy_audit");
  EXPECT_EQ(event->time(), 7);
  EXPECT_EQ(event->GetInt("node"), 2);
  EXPECT_EQ(event->GetStr("source"), "query");
  EXPECT_EQ(event->GetNum("threshold"), 0.5);
  EXPECT_EQ(event->GetInt("audited"), 2);
  EXPECT_EQ(event->GetInt("violations"), 1);
  EXPECT_EQ(event->GetNum("max_abs_error"), 1.5);
  EXPECT_EQ(event->GetNum("mean_abs_error"), 0.875);
  EXPECT_EQ(event->GetNum("violation_rate"), 0.5);
  EXPECT_EQ(event->GetNum("budget_burn"), 50.0);

  // A sweep round carries origin -1 and source "sweep".
  audit.BeginRound(AuditSource::kSweep, -1, 0.5, 8);
  audit.EndRound();
  ASSERT_EQ(sink->lines().size(), 2u);
  event = JournalEvent::Parse(sink->lines()[1]);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->GetInt("node"), -1);
  EXPECT_EQ(event->GetStr("source"), "sweep");
  EXPECT_EQ(event->GetInt("audited"), 0);
}

TEST_F(AccuracyAuditorTest, ToTableListsAuditedNodesAndTheSummary) {
  AccuracyAuditor audit(4, &registry_);
  audit.BeginRound(AuditSource::kQuery, 0, 1.0, 0);
  audit.ObserveEstimate(1, 0, 2.0, 4.0);
  audit.ObserveEstimate(2, 0, 0.5, 0.25);
  audit.EndRound();

  const std::string table = audit.ToTable();
  EXPECT_NE(table.find("node"), std::string::npos);
  EXPECT_NE(table.find("viol"), std::string::npos);
  // Nodes 0 and 3 were never audited: no rows for them beyond the header.
  EXPECT_NE(table.find("2 audited"), std::string::npos)
      << table;  // summary line
}

}  // namespace
}  // namespace snapq::obs
