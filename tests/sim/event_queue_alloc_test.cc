// Acceptance bar for the zero-allocation event hot path (same global
// new/delete harness as profiler_alloc_test): once the event queue's heap
// vector and the simulator's transmission pool are warm, scheduling an
// inline-sized action and delivering a transmission — payload vectors and
// receiver list included — must perform ZERO heap allocations, and the
// pooled Send path must keep the profiler's kMessagesSent accounting
// intact.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "obs/profiler.h"
#include "sim/event_queue.h"
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

TEST(EventQueueAllocTest, InlineActionsScheduleWithZeroAllocations) {
  EventQueue queue;
  queue.Reserve(64);
  uint64_t fired = 0;
  // Warm-up: some standard libraries lazily allocate on first use of
  // unrelated machinery; one full schedule/run cycle flushes that out.
  queue.ScheduleAt(queue.now(), [&fired] { ++fired; });
  ASSERT_TRUE(queue.RunNext());

  const uint64_t before = Allocations();
  for (int i = 0; i < 1000; ++i) {
    queue.ScheduleAt(queue.now() + 1, [&fired] { ++fired; });
    ASSERT_TRUE(queue.RunNext());
  }
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_EQ(fired, 1001u);
}

TEST(EventQueueAllocTest, ReservedBurstSchedulesWithZeroAllocations) {
  EventQueue queue;
  queue.Reserve(256);
  uint64_t fired = 0;
  const uint64_t before = Allocations();
  for (int i = 0; i < 256; ++i) {
    queue.ScheduleAt(queue.now() + i, [&fired] { ++fired; });
  }
  queue.RunAll();
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_EQ(fired, 256u);
}

TEST(EventQueueAllocTest, OversizedCaptureFallsBackToOneHeapAllocation) {
  // Sanity check that the harness measures: a capture bigger than the
  // inline buffer must allocate (exactly once per schedule).
  EventQueue queue;
  queue.Reserve(8);
  std::array<char, EventQueue::kActionInlineBytes + 16> big{};
  uint64_t fired = 0;
  queue.ScheduleAt(queue.now(), [&fired] { ++fired; });  // warm-up
  ASSERT_TRUE(queue.RunNext());

  const uint64_t before = Allocations();
  queue.ScheduleAt(queue.now(), [big, &fired] {
    (void)big;
    ++fired;
  });
  ASSERT_TRUE(queue.RunNext());
  EXPECT_GE(Allocations() - before, 1u);
  EXPECT_EQ(fired, 2u);
}

Simulator MakeSim() {
  SimConfig config;
  config.seed = 7;
  // Pairwise in range: every broadcast reaches both other nodes.
  return Simulator({{0, 0}, {1, 0}, {2, 0}}, {2.5, 2.5, 2.5}, config);
}

/// A broadcast with every payload vector populated — the worst case for
/// the pooled Message copy (all three vectors must reuse capacity).
Message PayloadMsg() {
  Message m;
  m.type = MessageType::kRepAck;
  m.from = 0;
  m.to = kBroadcastId;
  m.value = 3.5;
  m.ids = {1, 2};
  m.epochs = {4, 5};
  m.values = {0.25, 0.75};
  return m;
}

TEST(EventQueueAllocTest, SteadyStateDeliveryIsAllocationFree) {
  obs::Profiler::Disable();
  Simulator sim = MakeSim();
  uint64_t delivered = 0;
  for (NodeId i = 0; i < 3; ++i) {
    sim.SetHandler(i, [&delivered](const Message&, bool) { ++delivered; });
  }
  const Message m = PayloadMsg();
  // Warm up the transmission pool, the pooled messages' vector capacities
  // and the event queue's backing vector.
  for (int i = 0; i < 16; ++i) {
    sim.Send(m);
    sim.RunAll();
  }

  const uint64_t before = Allocations();
  const uint64_t delivered_before = delivered;
  for (int i = 0; i < 512; ++i) {
    sim.Send(m);
    sim.RunAll();
  }
  EXPECT_EQ(Allocations() - before, 0u);
  // Each broadcast reaches the two other nodes in range.
  EXPECT_EQ(delivered - delivered_before, 1024u);
}

TEST(EventQueueAllocTest, WideFanoutTransmissionsAreAllocationFree) {
  // A broadcast into a clique and a unicast that every other node snoops:
  // each fills a receiver list as long as the clique, which must reuse its
  // capacity once warm.
  obs::Profiler::Disable();
  constexpr size_t kClique = 20;
  std::vector<Point> positions;
  for (size_t i = 0; i < kClique; ++i) {
    positions.push_back({static_cast<double>(i), 0});
  }
  SimConfig config;
  config.seed = 7;
  config.snoop_probability = 1.0;
  Simulator sim(std::move(positions), std::vector<double>(kClique, 100.0),
                config);
  uint64_t delivered = 0;
  uint64_t snooped = 0;
  for (NodeId i = 0; i < kClique; ++i) {
    sim.SetHandler(i, [&](const Message&, bool snoop) {
      ++(snoop ? snooped : delivered);
    });
  }
  const Message broadcast = PayloadMsg();
  Message unicast = PayloadMsg();
  unicast.to = 5;
  for (int i = 0; i < 16; ++i) {
    sim.Send(broadcast);
    sim.Send(unicast);
    sim.RunAll();
  }

  const uint64_t before = Allocations();
  const uint64_t delivered_before = delivered;
  const uint64_t snooped_before = snooped;
  sim.Send(broadcast);
  sim.Send(unicast);
  sim.RunAll();
  EXPECT_EQ(Allocations() - before, 0u);
  // The broadcast reaches every other node; the unicast reaches node 5
  // and is snooped by everyone but the sender and node 5.
  EXPECT_EQ(delivered - delivered_before, (kClique - 1) + 1);
  EXPECT_EQ(snooped - snooped_before, kClique - 2);
}

TEST(EventQueueAllocTest, PooledSendKeepsProfilerAccountingIntact) {
  obs::Profiler::Global().Reset();
  obs::Profiler::Enable();
  Simulator sim = MakeSim();
  for (NodeId i = 0; i < 3; ++i) {
    sim.SetHandler(i, [](const Message&, bool) {});
  }
  const Message m = PayloadMsg();
  const uint64_t sent_before =
      obs::Profiler::Global().count(obs::HotOp::kMessagesSent);
  for (int i = 0; i < 100; ++i) {
    sim.Send(m);
    sim.RunAll();
  }
  obs::Profiler::Disable();
  // One kMessagesSent per Send, regardless of pooling or fan-out.
  EXPECT_EQ(obs::Profiler::Global().count(obs::HotOp::kMessagesSent) -
                sent_before,
            100u);
  EXPECT_GE(obs::Profiler::Global().count(obs::HotOp::kMessagesDelivered),
            200u);
}

}  // namespace
}  // namespace snapq
