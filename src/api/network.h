// SensorNetwork: the library's high-level facade. It wires together the
// simulator, per-node protocol agents, the dataset feed, the election /
// maintenance drivers and the query executor, exposing the workflow a
// deployment would follow:
//
//   SensorNetwork net(config);
//   net.AttachDataset(data);              // or SetMeasurements per tick
//   net.ScheduleTrainingBroadcasts(0, 10);
//   net.RunUntil(100);
//   net.RunElection(100);                 // discover representatives
//   auto result = net.Query("SELECT avg(value) FROM sensors "
//                           "WHERE loc IN NORTH_HALF USE SNAPSHOT");
#ifndef SNAPQ_API_NETWORK_H_
#define SNAPQ_API_NETWORK_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "net/energy.h"
#include "obs/accuracy.h"
#include "obs/flight_recorder.h"
#include "obs/health_monitor.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/topo.h"
#include "obs/tracer.h"
#include "query/catalog.h"
#include "query/continuous.h"
#include "query/executor.h"
#include "query/explain.h"
#include "sim/simulator.h"
#include "snapshot/agent.h"
#include "snapshot/config.h"
#include "snapshot/election.h"
#include "snapshot/maintenance.h"

namespace snapq {

/// Deployment-level configuration.
struct NetworkConfig {
  size_t num_nodes = 100;
  Rect area = Rect::UnitSquare();
  /// Per-node transmission range (uniform). The paper's default sqrt(2)
  /// lets every node hear the whole unit square.
  double transmission_range = 1.4142135623730951;
  double loss_probability = 0.0;
  double snoop_probability = 0.0;
  EnergyModel energy = EnergyModel::Unlimited();
  SnapshotConfig snapshot;
  uint64_t seed = 1;
  /// Explicit placement; when empty, nodes are placed uniformly at random
  /// in `area` (the paper's setup).
  std::vector<Point> positions;
};

/// A fully wired simulated deployment.
class SensorNetwork {
 public:
  explicit SensorNetwork(const NetworkConfig& config);

  SensorNetwork(const SensorNetwork&) = delete;
  SensorNetwork& operator=(const SensorNetwork&) = delete;

  size_t num_nodes() const { return agents_.size(); }

  // -- Data feed ------------------------------------------------------------

  /// Pre-schedules measurement updates for every tick of `data`'s horizon:
  /// at tick t each node i reads data.Value(i, t). Data events are
  /// scheduled before any protocol event of the same tick, so readings are
  /// always fresh. Must be called before running the simulator.
  Status AttachDataset(Dataset data);

  /// Directly sets every node's current reading (values[i] -> node i).
  void SetMeasurements(const std::vector<double>& values);

  /// Schedules each live node to broadcast its value once per tick in
  /// [from, to) — the paper's model-training phase ("a single query
  /// selecting the values from all nodes" for the first 10 time units).
  void ScheduleTrainingBroadcasts(Time from, Time to);

  // -- Simulation control -----------------------------------------------------

  void RunUntil(Time t) { sim_->RunUntil(t); }
  void RunAll() { sim_->RunAll(); }
  Time now() const { return sim_->now(); }

  // -- Snapshot lifecycle -----------------------------------------------------

  /// Network-wide representative discovery starting at t0 (>= now()).
  ElectionStats RunElection(Time t0);

  /// Maintenance rounds every `interval` ticks in [first, horizon); see
  /// MaintenanceDriver.
  void ScheduleMaintenance(Time first, Time horizon, Time interval,
                           MaintenanceDriver::RoundCallback callback = {});

  /// Current representation state.
  SnapshotView Snapshot() const { return CaptureSnapshot(*sim_); }
  ElectionStats SnapshotStats() { return SummarizeSnapshot(*sim_); }

  // -- Observability ----------------------------------------------------------

  /// Enables causal tracing: creates the tracer (owned) and attaches it to
  /// the simulator. Subsequent elections, maintenance rounds, queries and
  /// violations mint traces per `config.sampling`. Idempotent per network
  /// (a second call replaces the tracer and drops recorded spans).
  obs::Tracer& EnableTracing(const obs::TracerConfig& config = {});
  /// The attached tracer, or nullptr when tracing was never enabled.
  obs::Tracer* tracer() { return tracer_.get(); }

  /// Probes snapshot health right now and feeds the sample into the
  /// monitor (created on first use, gauges in sim().registry()).
  obs::HealthSample SampleHealth();
  /// The health monitor, or nullptr before the first sample.
  obs::SnapshotHealthMonitor* health_monitor() { return monitor_.get(); }

  /// Enables fixed-memory time-series telemetry: creates the recorder
  /// (owned) tracking the default series — the health gauges, the message
  /// counter rates and process RSS — plus the SLO watchdog, and splices a
  /// flight recorder in front of the journal sink so the last N protocol
  /// events stay available for a blackbox dump. When
  /// `config.blackbox_path` is non-empty, every confirmed breach dumps a
  /// `*.blackbox.json` there. A second call replaces the recorder and
  /// watchdog (series reset) but keeps the installed flight recorder.
  obs::TelemetryRecorder& EnableTelemetry(const obs::TelemetryConfig& config = {});
  /// The telemetry recorder, or nullptr when telemetry was never enabled.
  obs::TelemetryRecorder* telemetry() { return telemetry_.get(); }
  /// The SLO watchdog, or nullptr when telemetry was never enabled.
  obs::SloWatchdog* watchdog() { return watchdog_.get(); }
  /// The journal-teeing flight recorder, or nullptr before EnableTelemetry.
  obs::FlightRecorder* flight_recorder() { return flight_recorder_; }

  /// Enables per-joule energy accounting: creates the energy ledger
  /// (owned; `energy.*` gauges in sim().registry()) and attaches it to the
  /// simulator, so every subsequent battery drain is attributed by message
  /// type, direction, cache/direct cause and causal trace-root kind.
  /// Enable before running the simulation — the ledger mirrors each
  /// battery from full charge. When telemetry is enabled (before or after
  /// this call) the energy gauges are tracked as time series and the SLO
  /// grammar sees them (`energy.burn_rate slope >= 0.5 for 10`); with an
  /// unlimited battery the remaining-charge/forecast series are skipped
  /// (they would be infinite and serialize as JSON null). A second call
  /// replaces the ledger (accounting restarts from full charge).
  obs::EnergyLedger& EnableEnergyLedger();
  /// The ledger, or nullptr when energy accounting was never enabled.
  obs::EnergyLedger* energy_ledger() { return energy_ledger_.get(); }

  /// Enables ground-truth accuracy auditing: creates the auditor (owned;
  /// gauges in sim().registry(), one `accuracy_audit` journal event per
  /// round) and injects it into every subsequent Query/Explain/
  /// RunContinuousQuery round. SampleTelemetry additionally sweeps the
  /// current representation state (AuditSnapshotNow), so sampled ticks are
  /// audited even between queries. When telemetry is enabled — before or
  /// after this call — the accuracy gauges are tracked as time series and
  /// the SLO grammar sees them (`accuracy.violation_rate value <= 0.05
  /// for 10`). The error budget and window are obs::kAccuracyErrorBudget
  /// and obs::kAccuracyWindow, with per-node stats always kept. A second
  /// call replaces the auditor (histograms reset).
  obs::AccuracyAuditor& EnableAccuracyAudit();
  /// The auditor, or nullptr when auditing was never enabled.
  obs::AccuracyAuditor* accuracy_auditor() { return auditor_.get(); }

  /// Audits every live representation entry against ground truth right now
  /// (one kSweep round, judged against the deployment's configured T).
  /// No-op when auditing is not enabled.
  void AuditSnapshotNow();

  /// Enables the topology & churn observatory: creates the monitor (owned;
  /// `topo.*` / `churn.*` gauges in sim().registry(), one `topo.sample`
  /// journal event per sample) and attaches its link observer to the
  /// simulator, so every subsequent addressed delivery/loss and snoop
  /// feeds the per-directed-link stats. SampleTelemetry additionally
  /// analyzes the topology each sampled tick (SampleTopologyNow). When
  /// telemetry is enabled — before or after this call — the topo/churn
  /// gauges are tracked as time series and the SLO grammar sees them
  /// (`topo.partitions value <= 1 for 20`). A second call replaces the
  /// monitor (link stats and churn state reset). With `max_links == 0` the
  /// link table holds the current deployment's directed edges; set it
  /// explicitly when nodes will move (obs::TopologyConfig::max_links).
  obs::TopologyMonitor& EnableTopologyMonitor(
      const obs::TopologyConfig& config = {});
  /// The monitor, or nullptr when it was never enabled.
  obs::TopologyMonitor* topology_monitor() { return topo_monitor_.get(); }

  /// Analyzes the network structure right now: refreshes the monitor's
  /// cluster view from the agents, runs the connectivity/churn analysis
  /// and publishes the gauges. Returns the snapshot (valid until the next
  /// sample). Requires EnableTopologyMonitor.
  const obs::TopologySnapshot& SampleTopologyNow();

  /// Parses and installs an SLO rule (`<metric> <stat> <op> <threshold>
  /// [for <ticks>]`). Returns false on malformed text or when telemetry is
  /// not enabled.
  bool AddSloRule(std::string_view text);

  /// Samples health, then every telemetry probe, then evaluates the SLO
  /// rules — one watchdog tick. Requires EnableTelemetry.
  void SampleTelemetry();
  /// Runs SampleTelemetry every `interval` ticks in [first, horizon);
  /// interval 0 uses the telemetry config's sample_interval.
  void ScheduleTelemetrySampling(Time first, Time horizon, Time interval = 0);

  // -- Queries ----------------------------------------------------------------

  /// Parses and runs one round of `sql` (sink defaults to node 0).
  Result<QueryResult> Query(const std::string& sql,
                            const ExecutionOptions& options = {});

  /// Explains `sql` (with or without the EXPLAIN prefix): plan, per-node
  /// provenance and cost estimate. "EXPLAIN ANALYZE ..." also executes and
  /// joins the actuals; plain "EXPLAIN ..." (and bare queries) plan only.
  Result<ExplainReport> Explain(const std::string& sql,
                                const ExecutionOptions& options = {});

  /// Schedules a continuous query (SAMPLE INTERVAL ... FOR ...): one
  /// execution round per sampling epoch starting at `start` >= now().
  /// Returns the number of epochs scheduled.
  Result<int64_t> RunContinuousQuery(
      const std::string& sql, Time start,
      ContinuousQueryRunner::EpochCallback callback,
      const ExecutionOptions& options = {});

  QueryExecutor& executor() { return *executor_; }

  // -- Internals (exposed for experiments and tests) --------------------------

  Simulator& sim() { return *sim_; }
  const Simulator& sim() const { return *sim_; }
  SnapshotAgent& agent(NodeId id) { return *agents_[id]; }
  const SnapshotAgent& agent(NodeId id) const { return *agents_[id]; }
  std::vector<std::unique_ptr<SnapshotAgent>>& agents() { return agents_; }
  const NetworkConfig& config() const { return config_; }
  const Point& position(NodeId id) const { return sim_->links().position(id); }
  /// The attached dataset, or nullptr.
  const Dataset* dataset() const {
    return dataset_.has_value() ? &*dataset_ : nullptr;
  }

 private:
  NetworkConfig config_;
  std::unique_ptr<Simulator> sim_;
  std::vector<std::unique_ptr<SnapshotAgent>> agents_;
  std::unique_ptr<QueryExecutor> executor_;
  std::unique_ptr<ContinuousQueryRunner> continuous_;
  std::unique_ptr<MaintenanceDriver> maintenance_;
  std::optional<Dataset> dataset_;
  obs::SnapshotHealthMonitor& EnsureHealthMonitor();
  /// Tracks the gauges of every attached observer (accuracy auditor,
  /// energy ledger, topology monitor) as telemetry series; a no-op before
  /// EnableTelemetry. Called at the end of EnableTelemetry and of each
  /// observer's Enable*, so any enable order tracks every series once (the
  /// recorder dedupes by name). Remaining-charge and forecast series are
  /// skipped for unlimited batteries (no infinite gauges in timeline or
  /// blackbox JSON).
  void TrackObserverSeries();
  /// Copies `options` with the auditor injected (when enabled and the
  /// caller has not set a hook of their own).
  ExecutionOptions WithAudit(const ExecutionOptions& options) const;

  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::SnapshotHealthMonitor> monitor_;
  std::unique_ptr<obs::TelemetryRecorder> telemetry_;
  std::unique_ptr<obs::SloWatchdog> watchdog_;
  std::unique_ptr<obs::AccuracyAuditor> auditor_;
  std::unique_ptr<obs::EnergyLedger> energy_ledger_;
  std::unique_ptr<obs::TopologyMonitor> topo_monitor_;
  obs::FlightRecorder* flight_recorder_ = nullptr;  // owned by the journal
};

}  // namespace snapq

#endif  // SNAPQ_API_NETWORK_H_
