// Satellite regression: an unlimited energy model must not leak infinite
// gauges into telemetry. remaining_total/remaining_min and the forecast
// ticks are infinity when the battery is unbounded, and TrackGauge on
// them would serialize `null` into every timeline sidecar — so
// SensorNetwork skips them for EnergyModel::Unlimited() and tracks the
// full set only for finite batteries, in either enable order.
#include <gtest/gtest.h>

#include <string>

#include "api/network.h"
#include "obs/timeline.h"
#include "obs/timeseries.h"

namespace snapq {
namespace {

NetworkConfig SmallConfig() {
  NetworkConfig config;
  config.num_nodes = 4;
  config.transmission_range = 2.0;  // fully connected unit square
  config.seed = 11;
  return config;
}

TEST(EnergyTelemetryTest, UnlimitedModelSkipsRemainingAndForecastSeries) {
  NetworkConfig config = SmallConfig();  // default energy is Unlimited()
  SensorNetwork net(config);
  obs::TelemetryRecorder& recorder = net.EnableTelemetry();
  net.EnableEnergyLedger();  // ledger second: hook runs from here

  EXPECT_NE(recorder.series("energy.drained"), nullptr);
  EXPECT_NE(recorder.series("energy.burn_rate"), nullptr);
  EXPECT_NE(recorder.series("net.node_deaths.rate"), nullptr);
  EXPECT_EQ(recorder.series("energy.remaining_total"), nullptr);
  EXPECT_EQ(recorder.series("energy.remaining_min"), nullptr);
  EXPECT_EQ(recorder.series("energy.first_death_tick"), nullptr);
  EXPECT_EQ(recorder.series("energy.coverage_knee_tick"), nullptr);

  net.RunElection(0);
  net.SampleTelemetry();
  net.RunUntil(10);
  net.SampleTelemetry();

  obs::TimelineMeta meta;
  meta.benchmark = "energy_telemetry_test";
  meta.horizon = net.now();
  const std::string timeline = obs::TimelineToJson(recorder, nullptr, meta);
  EXPECT_EQ(timeline.find("remaining_total"), std::string::npos);
  EXPECT_EQ(timeline.find("inf"), std::string::npos);
  EXPECT_EQ(timeline.find("null"), std::string::npos);
}

TEST(EnergyTelemetryTest, FiniteModelTracksTheFullSeriesSet) {
  NetworkConfig config = SmallConfig();
  config.energy = EnergyModel();  // finite: 500-transmission battery
  SensorNetwork net(config);
  net.EnableEnergyLedger();  // ledger first: hook runs from EnableTelemetry
  obs::TelemetryRecorder& recorder = net.EnableTelemetry();

  for (const char* name :
       {"energy.drained", "energy.burn_rate", "net.node_deaths.rate",
        "energy.remaining_total", "energy.remaining_min",
        "energy.first_death_tick", "energy.coverage_knee_tick"}) {
    EXPECT_NE(recorder.series(name), nullptr) << name;
  }

  net.RunElection(0);
  net.energy_ledger()->UpdateGauges(net.now());
  net.SampleTelemetry();

  obs::TimelineMeta meta;
  meta.benchmark = "energy_telemetry_test";
  meta.horizon = net.now();
  const std::string timeline = obs::TimelineToJson(recorder, nullptr, meta);
  EXPECT_NE(timeline.find("energy.remaining_total"), std::string::npos);
  EXPECT_EQ(timeline.find("inf"), std::string::npos);
}

TEST(EnergyTelemetryTest, EverySeriesTrackedOnceInEitherEnableOrder) {
  // 9 default + 4 accuracy + 9 topology/churn + 3 energy, plus the four
  // remaining/forecast series for a finite battery only.
  for (const bool finite : {false, true}) {
    for (const bool telemetry_first : {true, false}) {
      NetworkConfig config = SmallConfig();
      if (finite) config.energy = EnergyModel();
      SensorNetwork net(config);
      if (telemetry_first) net.EnableTelemetry();
      net.EnableEnergyLedger();
      net.EnableAccuracyAudit();
      net.EnableTopologyMonitor();
      if (!telemetry_first) net.EnableTelemetry();
      const obs::TelemetryRecorder& recorder = *net.telemetry();
      EXPECT_EQ(recorder.num_series(), finite ? 29u : 25u)
          << "finite=" << finite << " telemetry_first=" << telemetry_first;
      for (const char* name :
           {"energy.drained", "energy.burn_rate", "net.node_deaths.rate",
            "accuracy.violation_rate", "accuracy.violations.rate",
            "topo.partitions", "churn.rep_tenure_p50"}) {
        EXPECT_NE(recorder.series(name), nullptr) << name;
      }
      EXPECT_EQ(recorder.series("energy.remaining_total") != nullptr, finite);
    }
  }
}

}  // namespace
}  // namespace snapq
