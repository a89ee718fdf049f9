#include "api/network.h"

#include <utility>

#include "common/check.h"
#include "net/topology.h"
#include "snapshot/health_probe.h"

namespace snapq {

SensorNetwork::SensorNetwork(const NetworkConfig& config) : config_(config) {
  SNAPQ_CHECK_GT(config.num_nodes, 0u);
  SNAPQ_CHECK_GT(config.transmission_range, 0.0);

  Rng root(config.seed);
  std::vector<Point> positions = config.positions;
  if (positions.empty()) {
    Rng placement = root.SplitNamed("placement");
    positions = PlaceUniform(config.num_nodes, config.area, placement);
  }
  SNAPQ_CHECK_EQ(positions.size(), config.num_nodes);

  SimConfig sim_config;
  sim_config.loss_probability = config.loss_probability;
  sim_config.snoop_probability = config.snoop_probability;
  sim_config.energy = config.energy;
  sim_config.seed = root.SplitNamed("simulator").NextUint64();

  std::vector<double> ranges(config.num_nodes, config.transmission_range);
  sim_ = std::make_unique<Simulator>(std::move(positions), std::move(ranges),
                                     sim_config);

  Rng agent_seeds = root.SplitNamed("agents");
  agents_.reserve(config.num_nodes);
  for (NodeId i = 0; i < config.num_nodes; ++i) {
    agents_.push_back(std::make_unique<SnapshotAgent>(
        i, sim_.get(), config.snapshot, agent_seeds.NextUint64()));
    agents_.back()->Install();
  }

  executor_ = std::make_unique<QueryExecutor>(
      sim_.get(), &agents_, Catalog::WithStandardRegions(config.area));
  continuous_ =
      std::make_unique<ContinuousQueryRunner>(sim_.get(), executor_.get());
}

Status SensorNetwork::AttachDataset(Dataset data) {
  if (data.num_nodes() != agents_.size()) {
    return Status::InvalidArgument(
        "dataset node count does not match the network");
  }
  dataset_ = std::move(data);
  const Dataset& ds = *dataset_;
  // Data events for tick t are scheduled now, ahead of any protocol event
  // later scheduled for t, so the FIFO tie-break delivers fresh readings
  // before the protocol acts on them.
  for (Time t = sim_->now(); t < static_cast<Time>(ds.horizon()); ++t) {
    sim_->ScheduleAt(t, [this, t] {
      for (NodeId i = 0; i < agents_.size(); ++i) {
        agents_[i]->SetMeasurement(
            dataset_->Value(i, static_cast<size_t>(t)));
      }
    });
  }
  return Status::Ok();
}

void SensorNetwork::SetMeasurements(const std::vector<double>& values) {
  SNAPQ_CHECK_EQ(values.size(), agents_.size());
  for (NodeId i = 0; i < agents_.size(); ++i) {
    agents_[i]->SetMeasurement(values[i]);
  }
}

void SensorNetwork::ScheduleTrainingBroadcasts(Time from, Time to) {
  for (Time t = from; t < to; ++t) {
    sim_->ScheduleAt(t, [this] {
      for (auto& agent : agents_) {
        if (sim_->alive(agent->id())) agent->BroadcastValue();
      }
    });
  }
}

ElectionStats SensorNetwork::RunElection(Time t0) {
  return RunGlobalElection(*sim_, agents_, t0, config_.snapshot);
}

void SensorNetwork::ScheduleMaintenance(
    Time first, Time horizon, Time interval,
    MaintenanceDriver::RoundCallback callback) {
  maintenance_ =
      std::make_unique<MaintenanceDriver>(sim_.get(), &agents_, interval);
  maintenance_->ScheduleRounds(first, horizon, std::move(callback));
}

obs::Tracer& SensorNetwork::EnableTracing(const obs::TracerConfig& config) {
  tracer_ = std::make_unique<obs::Tracer>(config);
  sim_->SetTracer(tracer_.get());
  return *tracer_;
}

obs::SnapshotHealthMonitor& SensorNetwork::EnsureHealthMonitor() {
  if (monitor_ == nullptr) {
    monitor_ = std::make_unique<obs::SnapshotHealthMonitor>(&sim_->registry(),
                                                            &sim_->journal());
  }
  return *monitor_;
}

obs::HealthSample SensorNetwork::SampleHealth() {
  obs::SnapshotHealthMonitor& monitor = EnsureHealthMonitor();
  const obs::HealthSample sample = ProbeSnapshotHealth(*sim_, agents_);
  monitor.Observe(sample, sim_->now());
  return sample;
}

obs::TelemetryRecorder& SensorNetwork::EnableTelemetry(
    const obs::TelemetryConfig& config) {
  EnsureHealthMonitor();  // registers the health gauges the probes read
  telemetry_ =
      std::make_unique<obs::TelemetryRecorder>(config, &sim_->registry());

  // Default series: snapshot health, message-layer rates, process RSS.
  telemetry_->TrackGauge("health.coverage");
  telemetry_->TrackGauge("health.violation_rate");
  telemetry_->TrackGauge("health.reelection_rate");
  telemetry_->TrackGauge("health.spurious_reps");
  telemetry_->TrackGauge("health.model_staleness");
  telemetry_->TrackCounterRate("net.sent");
  telemetry_->TrackCounterRate("net.delivered");
  telemetry_->TrackCounterRate("net.lost");
  telemetry_->TrackRss();

  // Splice the flight recorder in front of whatever sink the journal has
  // (including none — the ring then becomes the journal's only consumer,
  // which is exactly what the blackbox needs).
  if (flight_recorder_ == nullptr) {
    auto recorder =
        std::make_unique<obs::FlightRecorder>(obs::kFlightRecorderCapacity);
    obs::FlightRecorder* raw = recorder.get();
    raw->SetForward(sim_->journal().ReplaceSink(std::move(recorder)));
    flight_recorder_ = raw;
  }

  watchdog_ = std::make_unique<obs::SloWatchdog>(telemetry_.get(),
                                                 &sim_->journal());
  watchdog_->SetBreachCallback([this](const obs::SloBreach& breach) {
    const obs::TelemetryConfig& cfg = telemetry_->config();
    if (cfg.blackbox_path.empty()) return;
    obs::BlackboxContext ctx;
    ctx.reason = "slo_breach: " + breach.rule.ToString();
    ctx.benchmark = cfg.blackbox_label;
    ctx.now = sim_->now();
    ctx.recorder = telemetry_.get();
    ctx.watchdog = watchdog_.get();
    ctx.tracer = tracer_.get();
    obs::WriteBlackbox(flight_recorder_, ctx, cfg.blackbox_path);
  });
  TrackObserverSeries();
  return *telemetry_;
}

obs::EnergyLedger& SensorNetwork::EnableEnergyLedger() {
  energy_ledger_ = std::make_unique<obs::EnergyLedger>(
      config_.energy, agents_.size(), &sim_->registry());
  sim_->SetEnergyLedger(energy_ledger_.get());
  TrackObserverSeries();
  return *energy_ledger_;
}

obs::AccuracyAuditor& SensorNetwork::EnableAccuracyAudit() {
  auditor_ = std::make_unique<obs::AccuracyAuditor>(
      agents_.size(), &sim_->registry(), &sim_->journal());
  TrackObserverSeries();
  return *auditor_;
}

obs::TopologyMonitor& SensorNetwork::EnableTopologyMonitor(
    const obs::TopologyConfig& config) {
  topo_monitor_ = std::make_unique<obs::TopologyMonitor>(
      config, sim_->links(), &sim_->registry(), &sim_->journal());
  sim_->SetLinkObserver(&topo_monitor_->link_observer());
  TrackObserverSeries();
  return *topo_monitor_;
}

void SensorNetwork::TrackObserverSeries() {
  if (telemetry_ == nullptr) return;
  if (auditor_ != nullptr) {
    telemetry_->TrackGauge("accuracy.violation_rate");
    telemetry_->TrackGauge("accuracy.budget_burn");
    telemetry_->TrackGauge("accuracy.max_abs_error");
    telemetry_->TrackCounterRate("accuracy.violations");
  }
  if (energy_ledger_ != nullptr) {
    telemetry_->TrackGauge("energy.drained");
    telemetry_->TrackGauge("energy.burn_rate");
    telemetry_->TrackCounterRate("net.node_deaths");
    // Remaining-charge and forecast gauges only exist for finite batteries
    // (an unlimited model's would be infinite, and TrackGauge would create
    // them in the registry just to serialize null into sidecars).
    if (!energy_ledger_->unlimited()) {
      telemetry_->TrackGauge("energy.remaining_total");
      telemetry_->TrackGauge("energy.remaining_min");
      telemetry_->TrackGauge("energy.first_death_tick");
      telemetry_->TrackGauge("energy.coverage_knee_tick");
    }
  }
  if (topo_monitor_ != nullptr) {
    telemetry_->TrackGauge("topo.partitions");
    telemetry_->TrackGauge("topo.bridges");
    telemetry_->TrackGauge("topo.articulation_nodes");
    telemetry_->TrackGauge("topo.avg_degree");
    telemetry_->TrackGauge("topo.isolated_nodes");
    telemetry_->TrackGauge("topo.weak_links");
    telemetry_->TrackGauge("churn.flap_rate");
    telemetry_->TrackGauge("churn.election_rate");
    telemetry_->TrackGauge("churn.rep_tenure_p50");
  }
}

const obs::TopologySnapshot& SensorNetwork::SampleTopologyNow() {
  SNAPQ_CHECK(topo_monitor_ != nullptr);
  // Refresh the plain-data cluster view from the protocol agents (the
  // health_probe pattern — obs never sees the snapshot layer).
  obs::ClusterView& view = topo_monitor_->mutable_view();
  for (NodeId i = 0; i < agents_.size(); ++i) {
    const bool alive = sim_->alive(i);
    view.alive[i] = alive ? 1 : 0;
    view.is_rep[i] =
        alive && agents_[i]->mode() == NodeMode::kActive ? 1 : 0;
    view.representative[i] = agents_[i]->representative();
  }
  return topo_monitor_->Sample(sim_->links(), sim_->now());
}

void SensorNetwork::AuditSnapshotNow() {
  if (auditor_ == nullptr) return;
  // Sweep audit: judge every representation a live representative would
  // answer with right now against the deployment's configured T — the
  // sampled-tick complement of the per-query hook.
  const SnapshotConfig& snap_config = config_.snapshot;
  auditor_->BeginRound(obs::AuditSource::kSweep, /*origin=*/-1,
                       snap_config.threshold, sim_->now());
  for (const auto& agent : agents_) {
    if (!sim_->alive(agent->id())) continue;  // dead reps cannot answer
    for (const auto& [j, e] : agent->represents()) {
      const std::optional<double> estimate = agent->EstimateFor(j);
      if (!estimate.has_value()) continue;
      const double truth = agents_[j]->measurement();
      auditor_->ObserveEstimate(j, agent->id(), *estimate - truth,
                                snap_config.metric.Distance(truth, *estimate));
    }
  }
  auditor_->EndRound();
}

bool SensorNetwork::AddSloRule(std::string_view text) {
  if (watchdog_ == nullptr) return false;
  return watchdog_->AddRule(text);
}

void SensorNetwork::SampleTelemetry() {
  SNAPQ_CHECK(telemetry_ != nullptr);
  SampleHealth();
  AuditSnapshotNow();  // no-op unless EnableAccuracyAudit ran
  if (topo_monitor_ != nullptr) SampleTopologyNow();
  if (energy_ledger_ != nullptr) energy_ledger_->UpdateGauges(sim_->now());
  telemetry_->SampleNow(sim_->now());
  watchdog_->Evaluate(sim_->now());
}

void SensorNetwork::ScheduleTelemetrySampling(Time first, Time horizon,
                                              Time interval) {
  SNAPQ_CHECK(telemetry_ != nullptr);
  if (interval == 0) interval = telemetry_->config().sample_interval;
  SNAPQ_CHECK_GT(interval, 0);
  for (Time t = first; t < horizon; t += interval) {
    sim_->ScheduleAt(t, [this] { SampleTelemetry(); });
  }
}

ExecutionOptions SensorNetwork::WithAudit(
    const ExecutionOptions& options) const {
  ExecutionOptions audited = options;
  if (audited.audit == nullptr) audited.audit = auditor_.get();
  return audited;
}

Result<QueryResult> SensorNetwork::Query(const std::string& sql,
                                         const ExecutionOptions& options) {
  return executor_->ExecuteSql(sql, WithAudit(options));
}

Result<ExplainReport> SensorNetwork::Explain(const std::string& sql,
                                             const ExecutionOptions& options) {
  return ExplainSql(*executor_, sql, WithAudit(options));
}

Result<int64_t> SensorNetwork::RunContinuousQuery(
    const std::string& sql, Time start,
    ContinuousQueryRunner::EpochCallback callback,
    const ExecutionOptions& options) {
  return continuous_->ScheduleSql(sql, start, WithAudit(options),
                                  std::move(callback));
}

}  // namespace snapq
