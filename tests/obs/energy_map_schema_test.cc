// Golden test freezing the `.energymap.json` schema. The document is
// consumed by tools/energy_report.py (including the CI savings gate), so
// a change here is a cross-tool schema change: update kEnergyMapSchemaVersion,
// the golden below, and energy_report.py together.
#include <gtest/gtest.h>

#include <string>

#include "net/energy.h"
#include "obs/energy_ledger.h"
#include "obs/json.h"
#include "obs/metric_registry.h"

namespace snapq::obs {
namespace {

/// The ledger cell of a message-layer drain.
size_t Cell(EnergyDirection dir, MessageType type) {
  return EnergyLedger::CellIndex(dir, type);
}

/// A tiny deterministic ledger exercising every section of the document:
/// a traced election exchange, a traced query reply, a cache charge, a
/// direct drain, a forced-kill discard and one death.
EnergyLedgerSnapshot GoldenSnapshot() {
  static MetricRegistry registry;
  EnergyModel model;
  model.initial_battery = 8.0;
  EnergyLedger ledger(model, 2, &registry);
  ledger.Record(0, Cell(EnergyDirection::kTx, MessageType::kInvitation), 1.0,
                /*root_slot=*/0);
  ledger.Record(1, Cell(EnergyDirection::kRx, MessageType::kInvitation), 0.25,
                /*root_slot=*/0);
  ledger.Record(1, EnergyLedger::CacheCell(), 0.125);
  ledger.Record(1, Cell(EnergyDirection::kTx, MessageType::kQueryReply), 0.5,
                /*root_slot=*/3);
  ledger.Record(0, EnergyLedger::DirectCell(), 0.5);
  ledger.RecordKillDiscard(0, 6.5);
  ledger.RecordDeath(0, 7);
  ledger.UpdateGauges(9);
  return ledger.TakeSnapshot();
}

std::string GoldenJson() {
  EnergyMapMeta meta;
  meta.benchmark = "golden";
  meta.git_sha = "deadbeef";
  meta.quick = true;
  meta.t = 9;
  meta.extras = {{"alpha", 0.5}};
  return EnergyMapToJson(GoldenSnapshot(), {{0.25, 0.75}, {0.5, 0.5}}, meta);
}

constexpr char kGolden[] = R"({
  "schema_version": 1,
  "kind": "snapq-energymap",
  "benchmark": "golden",
  "git_sha": "deadbeef",
  "quick": true,
  "t": 9,
  "runs": 1,
  "num_nodes": 2,
  "unlimited": false,
  "initial_battery": 8,
  "totals": {
    "drained": 8.875,
    "remaining": 7.125,
    "deaths": 1,
    "by_cause": {"election": 1.25, "maintenance": 0, "data": 0, "query": 0.5, "cache": 0.125, "direct": 0.5, "killed": 6.5},
    "by_direction": {"tx": 1.5, "rx": 0.25, "snoop": 0},
    "by_root_kind": {"election": 1.25, "reelection": 0, "heartbeat_round": 0, "query": 0.5, "violation": 0, "untraced": 7.125}
  },
  "forecast": {"first_death_tick": 7, "coverage_knee_tick": -1},
  "extras": {"alpha": 0.5},
  "nodes": [
    {"id": 0, "x": 0.25, "y": 0.75, "remaining": 0, "drained": 8, "deaths": 1, "by_cause": {"election": 1, "maintenance": 0, "data": 0, "query": 0, "cache": 0, "direct": 0.5, "killed": 6.5}},
    {"id": 1, "x": 0.5, "y": 0.5, "remaining": 7.125, "drained": 0.875, "deaths": 0, "by_cause": {"election": 0.25, "maintenance": 0, "data": 0, "query": 0.5, "cache": 0.125, "direct": 0, "killed": 0}}
  ]
}
)";

TEST(EnergyMapSchemaTest, GoldenDocumentIsFrozen) {
  EXPECT_EQ(GoldenJson(), kGolden);
}

TEST(EnergyMapSchemaTest, GoldenDocumentIsValidJson) {
  EXPECT_TRUE(ValidateJson(GoldenJson()));
}

TEST(EnergyMapSchemaTest, ConservationHoldsInTheDocumentItself) {
  // The golden scenario drains + retains exactly the two batteries: the
  // sidecar's totals must re-sum to num_nodes * initial_battery.
  const EnergyLedgerSnapshot snap = GoldenSnapshot();
  double remaining = 0.0;
  for (double r : snap.remaining) remaining += r;
  EXPECT_EQ(snap.TotalDrained() + remaining, 2 * 8.0);
}

TEST(EnergyMapSchemaTest, UnlimitedBatteryNeverEmitsInfinity) {
  static MetricRegistry registry;
  EnergyLedger ledger(EnergyModel::Unlimited(), 1, &registry);
  ledger.Record(0, Cell(EnergyDirection::kTx, MessageType::kData), 2.0);
  EnergyMapMeta meta;
  meta.benchmark = "unlimited";
  const std::string json =
      EnergyMapToJson(ledger.TakeSnapshot(), {{0.0, 0.0}}, meta);
  EXPECT_TRUE(ValidateJson(json));
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("null"), std::string::npos);
  EXPECT_NE(json.find("\"unlimited\": true"), std::string::npos);
  EXPECT_NE(json.find("\"initial_battery\": -1"), std::string::npos);
}

}  // namespace
}  // namespace snapq::obs
