// Acceptance bar for the telemetry engine's memory discipline (same
// global new/delete harness as event_queue_alloc_test): a recorder must
// sample every probe kind (gauge, counter rate, RSS) with ZERO heap
// allocations once constructed, because every ring is preallocated and
// instrument pointers are cached. The flight-recorder
// ring must likewise reach an allocation-free steady state once its
// string slots are warm.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "obs/flight_recorder.h"
#include "obs/metric_registry.h"
#include "obs/timeseries.h"

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

namespace snapq::obs {
namespace {

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(TimeSeriesAllocTest, PushNeverAllocates) {
  TimeSeries series;  // rings preallocated at construction
  const uint64_t before = Allocations();
  // Far past both ring capacities, through several compactions.
  for (Time t = 0; t < 100000; ++t) {
    series.Push(t, static_cast<double>(t % 97));
  }
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_EQ(series.num_samples(), 100000u);
}

TEST(TimeSeriesAllocTest, EnabledSamplingIsAllocationFree) {
  MetricRegistry registry;
  Gauge* gauge = registry.GetGauge("g");
  Counter* counter = registry.GetCounter("c");
  TelemetryRecorder recorder({}, &registry);
  recorder.TrackGauge("g");
  recorder.TrackCounterRate("c");
  recorder.TrackRss();

  gauge->Set(1.0);
  recorder.SampleNow(0);  // warm-up (lazy libc machinery, if any)

  const uint64_t before = Allocations();
  for (Time t = 1; t <= 10000; ++t) {
    gauge->Set(static_cast<double>(t));
    counter->Inc(3);
    recorder.SampleNow(t);
  }
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_EQ(recorder.num_samples(), 10001u);
  EXPECT_DOUBLE_EQ(recorder.series("c.rate")->last(), 3.0);
}

TEST(TimeSeriesAllocTest, FlightRecorderSteadyStateIsAllocationFree) {
  FlightRecorder ring(64);
  const std::string line(120, 'x');
  // Warm-up: grow every slot's string capacity once around the ring.
  for (int i = 0; i < 128; ++i) ring.Write(line);

  const uint64_t before = Allocations();
  for (int i = 0; i < 1000; ++i) ring.Write(line);
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_EQ(ring.size(), 64u);
  EXPECT_EQ(ring.total_written(), 1128u);
}

}  // namespace
}  // namespace snapq::obs
