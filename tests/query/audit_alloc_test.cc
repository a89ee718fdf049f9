// Acceptance bar for the accuracy-audit hook, twin of explain_alloc_test:
//
//  * a null ExecutionOptions::audit must add ZERO heap allocations to the
//    snapshot query path (one pointer compare, nothing else);
//  * an *installed* auditor must also add zero steady-state allocations —
//    everything is preallocated at construction and the journal's
//    disabled Emit is a single branch, so auditing production queries is
//    free on the allocator.
//
// Enforced by replacing the global allocator with a counting one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "obs/accuracy.h"
#include "obs/metric_registry.h"
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

/// Steady-state allocations of `rounds` snapshot query executions.
uint64_t CountQueryAllocations(QueryExecutor& executor,
                               const ExecutionOptions& options, int rounds) {
  for (int i = 0; i < 8; ++i) {
    executor.ExecuteRegion(kAll, /*use_snapshot=*/true,
                           AggregateFunction::kSum, options);
  }
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < rounds; ++i) {
    executor.ExecuteRegion(kAll, /*use_snapshot=*/true,
                           AggregateFunction::kSum, options);
  }
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AuditAllocTest, AuditingAddsNoSteadyStateAllocationsToQueries) {
  // Baseline: the hookless steady-state cost, measured twice for
  // determinism (same recipe as explain_alloc_test).
  Net a = MakeNet();
  Net b = MakeNet();
  ExecutionOptions options;
  const uint64_t first = CountQueryAllocations(*a.executor, options, 64);
  const uint64_t second = CountQueryAllocations(*b.executor, options, 64);
  ASSERT_EQ(first, second);

  // With an installed auditor the steady-state cost must be IDENTICAL:
  // the auditor preallocates at construction (outside the measured
  // window) and BeginRound/ObserveEstimate/EndRound never allocate while
  // the journal is disabled. This is stronger than "disabled is free" —
  // enabled auditing is allocation-free on the query path too.
  Net c = MakeNet();
  obs::MetricRegistry registry;
  obs::AccuracyAuditor auditor(/*num_nodes=*/4, &registry);
  ExecutionOptions audited;
  audited.audit = &auditor;
  audited.audit_threshold = 1.0;
  const uint64_t with_audit = CountQueryAllocations(*c.executor, audited, 64);
  EXPECT_EQ(with_audit, first);
  EXPECT_GT(auditor.audited_total(), 0u);  // the hook really ran
}

}  // namespace
}  // namespace snapq
