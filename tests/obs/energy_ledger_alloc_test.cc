// Acceptance bar for the energy ledger's memory discipline (same global
// new/delete harness as timeseries_alloc_test): every Record* call and
// UpdateGauges must be allocation-free once constructed (cells, series
// and gauge handles are preallocated), and the simulator's charge sites
// must stay allocation-free in steady state BOTH without a ledger (the
// single null-pointer branch) and with one attached.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "net/energy.h"
#include "obs/energy_ledger.h"
#include "obs/metric_registry.h"
#include "sim/simulator.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace snapq {
namespace {

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

constexpr int kIterations = 10000;

TEST(EnergyLedgerAllocTest, RecordAndUpdateGaugesNeverAllocate) {
  obs::MetricRegistry registry;
  EnergyModel model;
  model.initial_battery = 1e9;  // no deaths during the loop
  obs::EnergyLedger ledger(model, 100, &registry);

  ledger.UpdateGauges(0);  // warm-up (lazy libc machinery, if any)
  const uint64_t before = Allocations();
  for (Time t = 1; t <= kIterations; ++t) {
    const NodeId node = static_cast<NodeId>(t % 100);
    ledger.Record(node,
                  obs::EnergyLedger::CellIndex(obs::EnergyDirection::kTx,
                                               MessageType::kHeartbeat),
                  1.0, /*root_slot=*/2);
    ledger.Record(node,
                  obs::EnergyLedger::CellIndex(obs::EnergyDirection::kRx,
                                               MessageType::kData),
                  0.25);
    ledger.Record(node, obs::EnergyLedger::CacheCell(), 0.1);
    ledger.Record(node, obs::EnergyLedger::DirectCell(), 0.5);
    ledger.UpdateGauges(t);
  }
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_GT(ledger.total_drained(), 0.0);
}

/// Steady-state charge-site loop shared by the with/without-ledger cases:
/// a broadcast (tx + rx charges), a cache op and a direct drain per tick.
uint64_t RunChargeSites(Simulator& sim) {
  Message msg;
  msg.type = MessageType::kData;
  msg.from = 0;
  msg.to = kBroadcastId;
  // Warm-up: fills the delivery pool and any lazy queue capacity.
  for (int i = 0; i < kIterations; ++i) {
    sim.Send(msg);
    sim.ChargeCacheOp(1);
    sim.Drain(1, 0.01);
    sim.RunAll();
  }
  const uint64_t before = Allocations();
  for (int i = 0; i < kIterations; ++i) {
    sim.Send(msg);
    sim.ChargeCacheOp(1);
    sim.Drain(1, 0.01);
    sim.RunAll();
  }
  return Allocations() - before;
}

TEST(EnergyLedgerAllocTest, ChargeSitesAreAllocationFreeWithoutALedger) {
  SimConfig config;
  config.energy.initial_battery = 1e9;
  Simulator sim({{0, 0}, {1, 0}}, {2.0, 2.0}, config);
  EXPECT_EQ(RunChargeSites(sim), 0u);
  EXPECT_EQ(sim.energy_ledger(), nullptr);
}

TEST(EnergyLedgerAllocTest, ChargeSitesAreAllocationFreeWithALedger) {
  SimConfig config;
  config.energy.initial_battery = 1e9;
  Simulator sim({{0, 0}, {1, 0}}, {2.0, 2.0}, config);
  obs::EnergyLedger ledger(config.energy, sim.num_nodes(), &sim.registry());
  sim.SetEnergyLedger(&ledger);
  EXPECT_EQ(RunChargeSites(sim), 0u);
  EXPECT_GT(ledger.total_drained(), 0.0);
  EXPECT_GT(ledger.CauseJoules(obs::EnergyCause::kData), 0.0);
  EXPECT_GT(ledger.CauseJoules(obs::EnergyCause::kCache), 0.0);
}

}  // namespace
}  // namespace snapq
