#include "obs/energy_ledger.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "net/energy.h"
#include "net/message.h"
#include "obs/metric_registry.h"

namespace snapq::obs {
namespace {

/// The ledger cell of a message-layer drain.
size_t Cell(EnergyDirection dir, MessageType type) {
  return EnergyLedger::CellIndex(dir, type);
}

EnergyModel SmallBattery(double capacity) {
  EnergyModel m;
  m.initial_battery = capacity;
  return m;
}

TEST(EnergyCauseTest, EveryMessageTypeRollsUpIntoAProtocolPhase) {
  EXPECT_EQ(EnergyCauseOf(MessageType::kInvitation), EnergyCause::kElection);
  EXPECT_EQ(EnergyCauseOf(MessageType::kCandList), EnergyCause::kElection);
  EXPECT_EQ(EnergyCauseOf(MessageType::kAccept), EnergyCause::kElection);
  EXPECT_EQ(EnergyCauseOf(MessageType::kRecall), EnergyCause::kElection);
  EXPECT_EQ(EnergyCauseOf(MessageType::kStayActive), EnergyCause::kElection);
  EXPECT_EQ(EnergyCauseOf(MessageType::kRepAck), EnergyCause::kElection);
  EXPECT_EQ(EnergyCauseOf(MessageType::kHeartbeat), EnergyCause::kMaintenance);
  EXPECT_EQ(EnergyCauseOf(MessageType::kHeartbeatReply),
            EnergyCause::kMaintenance);
  EXPECT_EQ(EnergyCauseOf(MessageType::kResign), EnergyCause::kMaintenance);
  EXPECT_EQ(EnergyCauseOf(MessageType::kData), EnergyCause::kData);
  EXPECT_EQ(EnergyCauseOf(MessageType::kQueryRequest), EnergyCause::kQuery);
  EXPECT_EQ(EnergyCauseOf(MessageType::kQueryReply), EnergyCause::kQuery);
}

TEST(EnergyLedgerTest, MessageDrainLandsInTheRightCell) {
  MetricRegistry registry;
  EnergyLedger ledger(SmallBattery(10.0), 3, &registry);

  ledger.Record(1, Cell(EnergyDirection::kTx, MessageType::kHeartbeat), 1.0);
  ledger.Record(2, Cell(EnergyDirection::kRx, MessageType::kHeartbeat), 0.25);
  ledger.Record(0, Cell(EnergyDirection::kSnoop, MessageType::kData), 0.25);

  EXPECT_EQ(ledger.cell(1, EnergyLedger::CellIndex(EnergyDirection::kTx,
                                                   MessageType::kHeartbeat)),
            1.0);
  EXPECT_EQ(ledger.cell(2, EnergyLedger::CellIndex(EnergyDirection::kRx,
                                                   MessageType::kHeartbeat)),
            0.25);
  EXPECT_EQ(ledger.cell(0, EnergyLedger::CellIndex(EnergyDirection::kSnoop,
                                                   MessageType::kData)),
            0.25);
  EXPECT_EQ(ledger.drained(1), 1.0);
  EXPECT_EQ(ledger.remaining(1), 9.0);
  EXPECT_EQ(ledger.total_drained(), 1.5);
  EXPECT_EQ(ledger.CauseJoules(EnergyCause::kMaintenance), 1.25);
  EXPECT_EQ(ledger.CauseJoules(EnergyCause::kData), 0.25);
}

TEST(EnergyLedgerTest, NonMessageSitesUseTheTrailingCells) {
  MetricRegistry registry;
  EnergyLedger ledger(SmallBattery(10.0), 2, &registry);

  ledger.Record(0, EnergyLedger::CacheCell(), 0.125);
  ledger.Record(0, EnergyLedger::DirectCell(), 0.5);
  ledger.RecordKillDiscard(1, 7.75);

  EXPECT_EQ(ledger.cell(0, EnergyLedger::CacheCell()), 0.125);
  EXPECT_EQ(ledger.cell(0, EnergyLedger::DirectCell()), 0.5);
  EXPECT_EQ(ledger.cell(1, EnergyLedger::KilledCell()), 7.75);
  EXPECT_EQ(ledger.CauseJoules(EnergyCause::kCache), 0.125);
  EXPECT_EQ(ledger.CauseJoules(EnergyCause::kDirect), 0.5);
  EXPECT_EQ(ledger.CauseJoules(EnergyCause::kKilled), 7.75);
  EXPECT_EQ(ledger.remaining(1), 10.0 - 7.75);
}

TEST(EnergyLedgerTest, KillDiscardOfAnInfiniteBatteryIsIgnored) {
  MetricRegistry registry;
  EnergyLedger ledger(EnergyModel::Unlimited(), 1, &registry);
  ledger.RecordKillDiscard(0, std::numeric_limits<double>::infinity());
  EXPECT_EQ(ledger.total_drained(), 0.0);
  EXPECT_EQ(ledger.cell(0, EnergyLedger::KilledCell()), 0.0);
}

TEST(EnergyLedgerTest, RootSlotAttributionFoldsInvalidSlotsIntoUntraced) {
  MetricRegistry registry;
  EnergyLedger ledger(SmallBattery(10.0), 1, &registry);

  ledger.Record(0, Cell(EnergyDirection::kTx, MessageType::kInvitation), 1.0,
                /*root_slot=*/0);  // election root
  ledger.Record(0, EnergyLedger::CacheCell(), 0.5,
                /*root_slot=*/3);  // query root
  ledger.Record(0, EnergyLedger::DirectCell(), 0.25, /*root_slot=*/-1);
  ledger.Record(0, Cell(EnergyDirection::kTx, MessageType::kData), 0.125,
                /*root_slot=*/99);  // out of range

  EXPECT_EQ(ledger.RootKindJoules(0), 1.0);
  EXPECT_EQ(ledger.RootKindJoules(3), 0.5);
  EXPECT_EQ(ledger.RootKindJoules(kEnergyUntracedSlot), 0.375);
}

TEST(EnergyLedgerTest, FirstDeathWinsAndDeathsAreCounted) {
  MetricRegistry registry;
  EnergyLedger ledger(SmallBattery(10.0), 2, &registry);
  EXPECT_EQ(ledger.death_tick(0), -1);
  ledger.RecordDeath(0, 7);
  ledger.RecordDeath(0, 9);  // ignored: already dead
  ledger.RecordDeath(1, 11);
  EXPECT_EQ(ledger.death_tick(0), 7);
  EXPECT_EQ(ledger.death_tick(1), 11);
  EXPECT_EQ(ledger.deaths(), 2u);
}

TEST(EnergyLedgerTest, UpdateGaugesPublishesDrainAndBurnRate) {
  MetricRegistry registry;
  EnergyLedger ledger(SmallBattery(100.0), 2, &registry);

  ledger.Record(0, Cell(EnergyDirection::kTx, MessageType::kData), 4.0);
  ledger.UpdateGauges(0);
  ledger.Record(1, Cell(EnergyDirection::kTx, MessageType::kData), 6.0);
  ledger.UpdateGauges(2);

  EXPECT_EQ(registry.GetGauge("energy.drained")->value(), 10.0);
  EXPECT_EQ(registry.GetGauge("energy.burn_rate")->value(), 3.0);  // 6 / 2
  EXPECT_EQ(registry.GetGauge("energy.cause.data")->value(), 10.0);
  EXPECT_EQ(registry.GetGauge("energy.remaining_total")->value(), 190.0);
  EXPECT_EQ(registry.GetGauge("energy.remaining_min")->value(), 94.0);
}

TEST(EnergyLedgerTest, DecliningChargeProjectsAFirstDeathTick) {
  MetricRegistry registry;
  EnergyLedger ledger(SmallBattery(100.0), 1, &registry);
  // Burn 1 J/tick: the least-squares trend should project the remaining
  // 90 J to run out ~90 ticks past the last sample.
  for (Time t = 0; t <= 10; ++t) {
    if (t > 0) {
      ledger.Record(0, Cell(EnergyDirection::kTx, MessageType::kData), 1.0);
    }
    ledger.UpdateGauges(t);
  }
  EXPECT_NEAR(ledger.first_death_tick(), 100.0, 1.0);
  EXPECT_NEAR(ledger.coverage_knee_tick(), 100.0, 1.0);
}

TEST(EnergyLedgerTest, ActualDeathDominatesTheProjection) {
  MetricRegistry registry;
  EnergyLedger ledger(SmallBattery(100.0), 1, &registry);
  ledger.RecordDeath(0, 17);
  ledger.UpdateGauges(20);
  EXPECT_EQ(ledger.first_death_tick(), 17.0);
}

TEST(EnergyLedgerTest, UnlimitedModelSkipsRemainingAndForecastGauges) {
  MetricRegistry registry;
  EnergyLedger ledger(EnergyModel::Unlimited(), 2, &registry);
  ledger.Record(0, Cell(EnergyDirection::kTx, MessageType::kData), 1.0);
  ledger.UpdateGauges(5);

  const std::string json = registry.ToJson();
  EXPECT_EQ(json.find("energy.remaining_total"), std::string::npos);
  EXPECT_EQ(json.find("energy.remaining_min"), std::string::npos);
  EXPECT_EQ(json.find("energy.first_death_tick"), std::string::npos);
  EXPECT_EQ(json.find("energy.coverage_knee_tick"), std::string::npos);
  // The drain-side gauges stay: they are finite even without a battery.
  EXPECT_NE(json.find("energy.drained"), std::string::npos);
  EXPECT_EQ(ledger.first_death_tick(), -1.0);
  EXPECT_EQ(ledger.coverage_knee_tick(), -1.0);
}

TEST(EnergyLedgerSnapshotTest, SnapshotCapturesTheLedger) {
  MetricRegistry registry;
  EnergyLedger ledger(SmallBattery(10.0), 2, &registry);
  ledger.Record(0, Cell(EnergyDirection::kTx, MessageType::kHeartbeat), 1.0,
                /*root_slot=*/2);
  ledger.Record(1, EnergyLedger::CacheCell(), 0.5);
  ledger.RecordDeath(1, 42);
  ledger.UpdateGauges(50);

  const EnergyLedgerSnapshot snap = ledger.TakeSnapshot();
  EXPECT_EQ(snap.num_nodes, 2u);
  EXPECT_EQ(snap.initial_battery, 10.0);
  EXPECT_EQ(snap.TotalDrained(), 1.5);
  EXPECT_EQ(snap.TotalDeaths(), 1u);
  EXPECT_EQ(snap.deaths[0], 0u);
  EXPECT_EQ(snap.deaths[1], 1u);
  EXPECT_EQ(snap.NodeCauseJoules(0, EnergyCause::kMaintenance), 1.0);
  EXPECT_EQ(snap.NodeCauseJoules(1, EnergyCause::kCache), 0.5);
  EXPECT_EQ(snap.CauseJoules(EnergyCause::kMaintenance), 1.0);
  EXPECT_EQ(snap.DirectionJoules(EnergyDirection::kTx), 1.0);
  EXPECT_EQ(snap.root_kind[2], 1.0);
  EXPECT_EQ(snap.remaining[0], 9.0);
  EXPECT_EQ(snap.first_death_tick, 42.0);
  EXPECT_EQ(snap.coverage_knee_tick, ledger.coverage_knee_tick());
}

TEST(EnergyLedgerTest, ToTableNamesEveryActiveCause) {
  MetricRegistry registry;
  EnergyLedger ledger(SmallBattery(10.0), 1, &registry);
  ledger.Record(0, Cell(EnergyDirection::kTx, MessageType::kInvitation), 2.0);
  ledger.Record(0, EnergyLedger::CacheCell(), 0.5);
  const std::string table = ledger.ToTable();
  EXPECT_NE(table.find("election"), std::string::npos);
  EXPECT_NE(table.find("cache"), std::string::npos);
  EXPECT_NE(table.find("tx="), std::string::npos);
}

}  // namespace
}  // namespace snapq::obs
