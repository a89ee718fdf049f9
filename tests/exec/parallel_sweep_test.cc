// The engine's acceptance bar (DESIGN.md §12): a --jobs N sweep must be
// bit-identical to --jobs 1 — same per-seed election stats, same merged
// metrics, same journal event counts — because each task owns its
// whole trial and every reduction happens in task-index order on the
// calling thread.
#include "exec/parallel_sweep.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/experiment.h"
#include "obs/journal.h"
#include "obs/metric_registry.h"

namespace snapq::exec {
namespace {

/// Temporarily sets (or clears) an environment variable.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      saved_ = old;
      had_value_ = true;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(ResolveJobsTest, ExplicitRequestWins) {
  ScopedEnv env("SNAPQ_JOBS", "5");
  EXPECT_EQ(ResolveJobs(3), 3);
  EXPECT_EQ(ResolveJobs(1), 1);
}

TEST(ResolveJobsTest, EnvironmentFillsInWhenUnrequested) {
  ScopedEnv env("SNAPQ_JOBS", "5");
  EXPECT_EQ(ResolveJobs(0), 5);
  EXPECT_EQ(ResolveJobs(-1), 5);
}

TEST(ResolveJobsTest, InvalidEnvironmentFallsBackToHardware) {
  const int hardware = HardwareJobs();
  EXPECT_GE(hardware, 1);
  {
    ScopedEnv env("SNAPQ_JOBS", "0");
    EXPECT_EQ(ResolveJobs(0), hardware);
  }
  {
    ScopedEnv env("SNAPQ_JOBS", "junk");
    EXPECT_EQ(ResolveJobs(0), hardware);
  }
  {
    ScopedEnv env("SNAPQ_JOBS", nullptr);
    EXPECT_EQ(ResolveJobs(0), hardware);
  }
}

TEST(ParallelMapTest, ResultsComeBackInIndexOrder) {
  for (int jobs : {1, 4}) {
    const std::vector<int> out = ParallelMap<int>(
        100, jobs, [](size_t i) { return static_cast<int>(i) * 3; });
    ASSERT_EQ(out.size(), 100u);
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i) * 3);
    }
  }
}

TEST(ParallelMapTest, ZeroTasksIsANoOp) {
  const std::vector<int> out =
      ParallelMap<int>(0, 8, [](size_t) { return 1; });
  EXPECT_TRUE(out.empty());
}

TEST(ParallelMapTest, TaskExceptionPropagatesToCaller) {
  EXPECT_THROW(ParallelMap<int>(16, 4,
                                [](size_t i) -> int {
                                  if (i == 7) {
                                    throw std::runtime_error("task 7");
                                  }
                                  return 0;
                                }),
               std::runtime_error);
}

TEST(ParallelMapTest, MetricMergesFoldIntoCallersSinkInIndexOrder) {
  obs::MetricRegistry captured;
  for (int jobs : {1, 4}) {
    obs::ScopedMetricSink scoped(&captured);
    captured.Reset();
    ParallelMap<int>(20, jobs, [](size_t i) {
      obs::MetricSink().GetCounter("sweep.trials")->Inc();
      obs::MetricSink().GetGauge("sweep.max_index")->SetMax(
          static_cast<double>(i));
      return 0;
    });
    EXPECT_EQ(captured.GetCounter("sweep.trials")->value(), 20u)
        << "jobs=" << jobs;
    EXPECT_EQ(captured.GetGauge("sweep.max_index")->value(), 19.0)
        << "jobs=" << jobs;
  }
}

/// One full trial, as the bench drivers run it: build the §6.1 network
/// (training broadcasts pre-scheduled), journal enabled, run to the
/// discovery instant, elect, merge the sim's registry into the ambient
/// metric sink.
struct TrialResult {
  ElectionStats stats;
  uint64_t journal_events = 0;
};

TrialResult RunOneTrial(uint64_t seed) {
  SensitivityConfig config;
  config.num_nodes = 40;
  config.num_classes = 4;
  config.transmission_range = 0.5;
  config.discovery_time = 60;
  config.seed = seed;
  std::unique_ptr<SensorNetwork> net = BuildSensitivityNetwork(config);
  net->sim().journal().SetSink(std::make_unique<obs::MemoryJournalSink>(1));
  net->RunUntil(config.discovery_time);
  TrialResult result;
  result.stats = net->RunElection(config.discovery_time);
  result.journal_events = net->sim().journal().events_emitted();
  obs::MetricSink().MergeFrom(net->sim().registry());
  return result;
}

/// Every instrument of `reg` as (kind,name) -> value, histogram buckets
/// included (a bucket's name carries its bounds). The CSV export lists
/// every instrument, but prints gauges and histogram sums and maxima to 12
/// digits, so those are read back from the instruments themselves to keep
/// the comparison bit-exact.
std::map<std::string, double> ExactValues(obs::MetricRegistry& reg) {
  std::map<std::string, double> values;
  std::istringstream csv(reg.ToCsv());
  std::string line;
  std::getline(csv, line);  // header
  while (std::getline(csv, line)) {
    const size_t name_at = line.find(',') + 1;
    const size_t value_at = line.rfind(',') + 1;
    const std::string kind = line.substr(0, name_at - 1);
    const std::string name = line.substr(name_at, value_at - 1 - name_at);
    double value = std::stod(line.substr(value_at));
    if (kind == "gauge") {
      const size_t label = name.find("{node=");
      value = label == std::string::npos
                  ? reg.GetGauge(name)->value()
                  : reg.GetGauge(name.substr(0, label),
                                 static_cast<NodeId>(std::stoul(
                                     name.substr(label + 6))))
                        ->value();
    } else if (kind == "histogram_sum") {
      value = reg.GetHistogram(name)->sum();
    } else if (kind == "histogram_max") {
      value = reg.GetHistogram(name)->max_seen();
    }
    values[kind + "," + name] = value;
  }
  return values;
}

struct SweepOutput {
  std::vector<TrialResult> trials;
  std::map<std::string, double> metrics;
};

SweepOutput RunSweep(int jobs) {
  constexpr size_t kSeeds = 10;
  SweepOutput out;
  obs::MetricRegistry captured;
  {
    obs::ScopedMetricSink scoped(&captured);
    out.trials = ParallelMap<TrialResult>(
        kSeeds, jobs, [](size_t i) { return RunOneTrial(100 + i); });
  }
  // Everything but wall time (protocol counters, per-node message gauges,
  // cache stats, histogram buckets) is covered by the bit-identity
  // contract.
  out.metrics = ExactValues(captured);
  return out;
}

TEST(ParallelSweepDeterminismTest, JobsEightIsBitIdenticalToJobsOne) {
  const SweepOutput serial = RunSweep(1);
  const SweepOutput parallel = RunSweep(8);

  ASSERT_EQ(serial.trials.size(), parallel.trials.size());
  for (size_t i = 0; i < serial.trials.size(); ++i) {
    const ElectionStats& a = serial.trials[i].stats;
    const ElectionStats& b = parallel.trials[i].stats;
    EXPECT_EQ(a.num_active, b.num_active) << "seed index " << i;
    EXPECT_EQ(a.num_passive, b.num_passive) << "seed index " << i;
    EXPECT_EQ(a.num_undefined, b.num_undefined) << "seed index " << i;
    EXPECT_EQ(a.num_spurious, b.num_spurious) << "seed index " << i;
    // Bit-identical, not approximately equal: same seed, same RNG stream,
    // same float operations in the same order.
    EXPECT_EQ(a.avg_messages_per_node, b.avg_messages_per_node)
        << "seed index " << i;
    EXPECT_EQ(a.max_messages_per_node, b.max_messages_per_node)
        << "seed index " << i;
    EXPECT_EQ(serial.trials[i].journal_events,
              parallel.trials[i].journal_events)
        << "seed index " << i;
    EXPECT_GT(serial.trials[i].journal_events, 0u) << "seed index " << i;
  }

  // The merged metrics (every counter, gauge and histogram the 10 trials
  // produced) must match key-for-key, bit-for-bit.
  EXPECT_FALSE(serial.metrics.empty());
  for (const auto& [key, value] : serial.metrics) {
    auto it = parallel.metrics.find(key);
    if (it == parallel.metrics.end()) {
      ADD_FAILURE() << "key only in serial: " << key;
    } else if (it->second != value) {
      ADD_FAILURE() << "key " << key << ": serial=" << value
                    << " parallel=" << it->second;
    }
  }
  EXPECT_EQ(serial.metrics, parallel.metrics);

  // And repeating the parallel sweep is itself deterministic.
  const SweepOutput again = RunSweep(8);
  EXPECT_EQ(parallel.metrics, again.metrics);
}

}  // namespace
}  // namespace snapq::exec
