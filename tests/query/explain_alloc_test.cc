// Acceptance bar for the provenance hook: a null ExecutionOptions::
// provenance must add ZERO heap allocations to the non-EXPLAIN query path
// (same discipline as the tracer and profiler). Enforced by replacing the
// global allocator with a counting one and running identical query rounds
// with the hook absent vs present.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "query/executor.h"
#include "sim/simulator.h"
#include "snapshot/election.h"

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

struct Net {
  std::unique_ptr<Simulator> sim;
  std::vector<std::unique_ptr<SnapshotAgent>> agents;
  std::unique_ptr<QueryExecutor> executor;
};

Net MakeNet() {
  SnapshotConfig config;
  config.threshold = 1.0;
  config.max_wait = 4;
  config.rule4_hard_cap = 8;
  SimConfig sim_config;
  sim_config.energy.initial_battery = 1e9;
  Net net;
  net.sim = std::make_unique<Simulator>(
      std::vector<Point>{{0.1, 0.1}, {0.3, 0.1}, {0.5, 0.1}, {0.7, 0.1}},
      std::vector<double>(4, 10.0), sim_config);
  for (NodeId i = 0; i < 4; ++i) {
    net.agents.push_back(std::make_unique<SnapshotAgent>(
        i, net.sim.get(), config, 900 + i));
    net.agents.back()->Install();
    net.agents.back()->SetMeasurement(10.0 + i);
  }
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = 0; j < 4; ++j) {
      if (i == j) continue;
      const double vi = net.agents[i]->measurement();
      const double vj = net.agents[j]->measurement();
      net.agents[i]->models().cache().Observe(j, vi - 1, vj - 1, 0);
      net.agents[i]->models().cache().Observe(j, vi + 1, vj + 1, 0);
    }
  }
  RunGlobalElection(*net.sim, net.agents, net.sim->now(), config);
  net.executor = std::make_unique<QueryExecutor>(
      net.sim.get(), &net.agents,
      Catalog::WithStandardRegions(Rect::UnitSquare()));
  return net;
}

const Rect kAll{0.0, 0.0, 1.0, 1.0};
/// Holds node 3 (at x = 0.7) and no other.
const Rect kNodeThree{0.6, 0.0, 0.8, 0.2};

/// Steady-state allocations of `rounds` query executions over `region`
/// with `options`. The warmup rounds let the registry/histograms, the
/// routing-tree cache and the executor's scratch reach their steady size.
uint64_t CountQueryAllocations(QueryExecutor& executor, const Rect& region,
                               bool use_snapshot,
                               const ExecutionOptions& options, int rounds) {
  for (int i = 0; i < 8; ++i) {
    executor.ExecuteRegion(region, use_snapshot, AggregateFunction::kSum,
                           options);
  }
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < rounds; ++i) {
    executor.ExecuteRegion(region, use_snapshot, AggregateFunction::kSum,
                           options);
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

uint64_t CountQueryAllocations(QueryExecutor& executor,
                               const ExecutionOptions& options, int rounds) {
  return CountQueryAllocations(executor, kAll, /*use_snapshot=*/true, options,
                               rounds);
}

TEST(ExplainAllocTest, NullProvenanceHookAddsNoAllocationsToQueryPath) {
  // Two identical networks, identical workloads; the only difference is
  // whether ExecutionOptions carries a provenance hook. The null-hook
  // steady-state cost is the baseline; it must not change between the two
  // baseline runs (determinism check), and the charge_energy loop with its
  // per-node counters must be allocation-free at steady state too.
  Net a = MakeNet();
  Net b = MakeNet();
  ExecutionOptions options;
  options.charge_energy = true;
  const uint64_t first = CountQueryAllocations(*a.executor, options, 64);
  const uint64_t second = CountQueryAllocations(*b.executor, options, 64);
  EXPECT_EQ(first, second);

  // A null-hook round allocates nothing at all (see the next test); a
  // fresh hook each round must therefore cost strictly more on the same
  // workload.
  Net c = MakeNet();
  const uint64_t baseline = CountQueryAllocations(*c.executor, options, 64);
  Net d = MakeNet();
  uint64_t with_hook = 0;
  {
    for (int i = 0; i < 8; ++i) {
      d.executor->ExecuteRegion(kAll, true, AggregateFunction::kSum, options);
    }
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 64; ++i) {
      QueryProvenance prov;
      ExecutionOptions hooked = options;
      hooked.provenance = &prov;
      d.executor->ExecuteRegion(kAll, true, AggregateFunction::kSum, hooked);
    }
    with_hook = g_allocations.load(std::memory_order_relaxed) - before;
  }
  EXPECT_EQ(baseline, first);  // same workload, same steady-state cost
  EXPECT_GT(with_hook, baseline);  // the hook is where provenance pays
}

TEST(ExplainAllocTest, QueryAllocationsDoNotGrowWithRegionSize) {
  // With null hooks a round's participation and claim pass work in the
  // executor's reused scratch and a cached routing tree, and the phase
  // span feeds histogram handles resolved on its first round, so a steady
  // round allocates nothing: not per responder, per router or per claim,
  // and not per round either.
  ExecutionOptions options;
  options.charge_energy = true;
  for (const bool use_snapshot : {true, false}) {
    Net one = MakeNet();
    Net all = MakeNet();
    const QueryResult small = one.executor->ExecuteRegion(
        kNodeThree, use_snapshot, AggregateFunction::kSum, options);
    const QueryResult whole = all.executor->ExecuteRegion(
        kAll, use_snapshot, AggregateFunction::kSum, options);
    ASSERT_EQ(small.covered_nodes, 1u);
    ASSERT_EQ(whole.covered_nodes, 4u);
    EXPECT_EQ(CountQueryAllocations(*one.executor, kNodeThree, use_snapshot,
                                    options, 64),
              0u)
        << "use_snapshot=" << use_snapshot;
    EXPECT_EQ(CountQueryAllocations(*all.executor, kAll, use_snapshot,
                                    options, 64),
              0u)
        << "use_snapshot=" << use_snapshot;
  }
}

}  // namespace
}  // namespace snapq
