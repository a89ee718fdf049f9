// Acceptance bar for the link observer's memory discipline (same global
// new/delete harness as energy_ledger_alloc_test): every Record* call
// must be allocation-free once constructed (the open-addressing table is
// preallocated, first touches included), and the simulator's message path
// must stay allocation-free in steady state BOTH without an observer (the
// single null-pointer branch) and with one attached.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "obs/topo.h"
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

TEST(TopoAllocTest, RecordSitesNeverAllocateEvenOnFirstTouch) {
  obs::LinkObserver observer(100);
  const uint64_t before = Allocations();
  // No warm-up: first touches insert into the preallocated table and must
  // be just as allocation-free as steady-state updates.
  for (int i = 0; i < kIterations; ++i) {
    const NodeId from = static_cast<NodeId>(i % 100);
    const NodeId to = static_cast<NodeId>((i + 1 + i / 100) % 100);
    observer.Record(from, to, RadioEventKind::kDeliver, i);
    observer.Record(to, from, RadioEventKind::kLoss, i);
    observer.Record(from, to, RadioEventKind::kSnoop, i);
  }
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_GT(observer.num_links(), 0u);
}

TEST(TopoAllocTest, OverflowPathNeverAllocates) {
  obs::LinkObserver observer(100, /*max_links=*/4);
  for (int i = 0; i < 8; ++i) {  // fill + spill
    observer.Record(static_cast<NodeId>(i), 99, RadioEventKind::kDeliver, 0);
  }
  const uint64_t before = Allocations();
  for (int i = 0; i < kIterations; ++i) {
    observer.Record(static_cast<NodeId>(i % 100), 98,
                    RadioEventKind::kDeliver, i);
  }
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_GT(observer.dropped_records(), 0u);
}

/// Steady-state message loop shared by the with/without-observer cases: a
/// broadcast (delivery records), an addressed unicast under loss (loss
/// records) and snooping enabled, per tick.
uint64_t RunMessagePath(Simulator& sim) {
  Message broadcast;
  broadcast.type = MessageType::kData;
  broadcast.from = 0;
  broadcast.to = kBroadcastId;
  Message unicast;
  unicast.type = MessageType::kHeartbeat;
  unicast.from = 1;
  unicast.to = 0;
  // Warm-up: fills the delivery pool and any lazy queue capacity.
  for (int i = 0; i < kIterations; ++i) {
    sim.Send(broadcast);
    sim.Send(unicast);
    sim.RunAll();
  }
  const uint64_t before = Allocations();
  for (int i = 0; i < kIterations; ++i) {
    sim.Send(broadcast);
    sim.Send(unicast);
    sim.RunAll();
  }
  return Allocations() - before;
}

SimConfig LossySnoopingConfig() {
  SimConfig config;
  config.energy.initial_battery = 1e9;
  config.loss_probability = 0.3;   // exercises addressed losses
  config.snoop_probability = 0.5;  // exercises snoops
  return config;
}

TEST(TopoAllocTest, MessagePathAllocationFreeWithoutAnObserver) {
  Simulator sim({{0, 0}, {1, 0}, {0, 1}}, {2.0, 2.0, 2.0},
                LossySnoopingConfig());
  EXPECT_EQ(RunMessagePath(sim), 0u);
}

TEST(TopoAllocTest, MessagePathAllocationFreeWithAnObserver) {
  Simulator sim({{0, 0}, {1, 0}, {0, 1}}, {2.0, 2.0, 2.0},
                LossySnoopingConfig());
  obs::LinkObserver observer(sim.num_nodes());
  sim.SetLinkObserver(&observer);
  EXPECT_EQ(RunMessagePath(sim), 0u);
  EXPECT_GT(observer.num_links(), 0u);
  // The lossy run must have fed all three outcome kinds.
  const std::vector<obs::LinkStats> links = observer.SortedLinks();
  uint64_t deliveries = 0, losses = 0, snoops = 0;
  for (const obs::LinkStats& l : links) {
    deliveries += l.deliveries;
    losses += l.losses;
    snoops += l.snoops;
  }
  EXPECT_GT(deliveries, 0u);
  EXPECT_GT(losses, 0u);
  EXPECT_GT(snoops, 0u);
}

}  // namespace
}  // namespace snapq
