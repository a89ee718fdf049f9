// Long-running soak: the §6.3 network (weather data, maintenance every
// 100 time units, 5% snooping, background query traffic) run for ten
// Figure-14 horizons with failures injected along the way — a mid-run
// loss burst and a batch of node deaths — while the telemetry recorder
// trends health, message rates and process RSS, and the SLO watchdog
// checks that the deployment absorbs the faults:
//
//   * coverage must recover (never sit below the floor for a sustained
//     window),
//   * spurious representatives must stay bounded,
//   * resident memory must stay flat (the slope SLO): the horizon is 10x
//     fig14's, so anything that grows with time shows up here first.
//
// The run leaves a `.timeline.json` sidecar (tools/timeline_check.py
// validates and diffs it) and exits non-zero on any confirmed breach; a
// breach also dumps a `.blackbox.json` flight-recorder snapshot with the
// journal window around the incident.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_report.h"
#include "bench_util.h"
#include "longrun_common.h"
#include "obs/timeline.h"

namespace {

using namespace snapq;

constexpr Time kSoakMultiple = 10;  // x fig14's 5,000-tick horizon
constexpr Time kTelemetryInterval = 25;
constexpr double kBaseLoss = 0.05;
constexpr double kBurstLoss = 0.4;

}  // namespace

SNAPQ_BENCHMARK(longrun_soak,
                "Soak: 10x fig14 horizon with fault injection, SLO "
                "watchdog and timeline sidecar") {
  bench::Driver driver(
      ctx, "Soak: long-horizon maintenance under fault injection",
      "N=100, range=0.7, T=0.1, update every 100 units, snoop=5%, "
      "loss=5% with a 0.4 burst and 5 node deaths mid-run");

  const Time horizon = ctx.Scaled(bench::kLongHorizon * kSoakMultiple);
  const uint64_t seed = bench::kBaseSeed;

  NetworkConfig config;
  config.num_nodes = 100;
  config.transmission_range = 0.7;
  config.loss_probability = kBaseLoss;
  config.snoop_probability = 0.05;
  config.snapshot.threshold = 0.1;
  config.seed = seed;
  SensorNetwork net(config);

  Rng data_rng = Rng(seed).SplitNamed("weather-soak");
  Result<Dataset> dataset = Dataset::Create(GenerateWeatherWindows(
      WeatherConfig{}, 100, static_cast<size_t>(horizon) + 1, data_rng));
  SNAPQ_CHECK(dataset.ok());
  SNAPQ_CHECK(net.AttachDataset(std::move(*dataset)).ok());

  net.ScheduleTrainingBroadcasts(0, 10);
  net.RunUntil(bench::kLongDiscovery);
  net.RunElection(bench::kLongDiscovery);

  // Background query traffic, as in the fig14/15 runs.
  Rng query_rng = Rng(seed).SplitNamed("queries-soak");
  const double w = std::sqrt(0.1);
  for (Time t = net.now() + 1; t < horizon; ++t) {
    net.sim().ScheduleAt(t, [&net, &query_rng, w] {
      const Point center{query_rng.NextDouble(), query_rng.NextDouble()};
      const Rect region = Rect::CenteredSquare(center, w);
      const NodeId sink = static_cast<NodeId>(query_rng.UniformInt(0, 99));
      for (NodeId i = 0; i < net.num_nodes(); ++i) {
        if (i == sink || !region.Contains(net.position(i))) continue;
        Message msg;
        msg.type = MessageType::kData;
        msg.from = i;
        msg.to = sink;
        msg.value = net.agent(i).measurement();
        net.sim().Send(msg);
      }
    });
  }

  // Telemetry + watchdog. The blackbox lands next to the timeline sidecar.
  const std::string base = ctx.argv0.empty() ? ctx.name : ctx.argv0;
  obs::TelemetryConfig telemetry_config;
  telemetry_config.sample_interval = kTelemetryInterval;
  telemetry_config.blackbox_path =
      bench::SidecarPath(base.c_str(), ".blackbox.json");
  telemetry_config.blackbox_label = ctx.name;
  net.EnableTelemetry(telemetry_config);
  // Topology & churn observatory: per-link delivery stats ride the message
  // path (fixed-table, allocation-free), and every telemetry sample also
  // analyzes the live radio graph, so partitions / weak links / churn
  // trend in the timeline alongside health and RSS.
  net.EnableTopologyMonitor();
  // Ground-truth accuracy auditing rides the telemetry sampling: every
  // sample sweeps the live representation state against actual readings,
  // so the soak also proves the auditor itself stays memory-flat (the
  // rss slope SLO below covers it) across a 50k-tick horizon.
  net.EnableAccuracyAudit();

  // The sustain windows span several maintenance rounds, so a burst or a
  // death batch must go unrepaired for multiple updates to count as an
  // incident.
  SNAPQ_CHECK(net.AddSloRule("health.coverage value >= 0.5 for 400"));
  SNAPQ_CHECK(net.AddSloRule("health.spurious_reps ewma <= 25"));
  SNAPQ_CHECK(net.AddSloRule("proc.rss_kb slope <= 8"));
  // Topology SLOs: at range 0.7 the radio graph must stay one component
  // with no isolated survivors — five random deaths cannot partition it —
  // and representative churn must settle between maintenance rounds
  // rather than storm.
  SNAPQ_CHECK(net.AddSloRule("topo.partitions value <= 1 for 400"));
  SNAPQ_CHECK(net.AddSloRule("topo.isolated_nodes value <= 0 for 400"));
  SNAPQ_CHECK(net.AddSloRule("churn.flap_rate ewma <= 30"));

  // Fault injection: a loss burst at one third of the horizon (restored
  // three maintenance rounds later) and five node deaths at two thirds.
  const Time burst_at = horizon / 3;
  net.sim().ScheduleAt(burst_at,
                       [&net] { net.sim().SetLossProbability(kBurstLoss); });
  net.sim().ScheduleAt(burst_at + 3 * bench::kUpdateInterval,
                       [&net] { net.sim().SetLossProbability(kBaseLoss); });
  Rng death_rng = Rng(seed).SplitNamed("deaths-soak");
  net.sim().ScheduleAt((2 * horizon) / 3, [&net, &death_rng] {
    for (int i = 0; i < 5; ++i) {
      net.sim().Kill(static_cast<NodeId>(death_rng.UniformInt(0, 99)));
    }
  });

  net.ScheduleMaintenance(net.now() + bench::kUpdateInterval, horizon,
                          bench::kUpdateInterval);
  net.ScheduleTelemetrySampling(net.now() + kTelemetryInterval, horizon);
  net.RunAll();
  obs::MetricSink().MergeFrom(net.sim().registry());

  // Verdict + sidecar.
  const obs::SloWatchdog& watchdog = *net.watchdog();
  std::printf("soak horizon %lld, %llu telemetry samples\n",
              static_cast<long long>(horizon),
              static_cast<unsigned long long>(net.telemetry()->num_samples()));
  // The radio's totals: what the loss burst and the deaths did to the
  // traffic, on stdout so a build that changes the simulation shows here.
  const MetricsSnapshot radio = net.sim().metrics().Snapshot();
  const uint64_t snooped = std::accumulate(
      radio.snooped.begin(), radio.snooped.end(), uint64_t{0});
  std::printf("radio: %llu sent, %llu delivered, %llu lost, %llu snooped\n",
              static_cast<unsigned long long>(radio.total_sent),
              static_cast<unsigned long long>(radio.total_delivered),
              static_cast<unsigned long long>(radio.total_lost),
              static_cast<unsigned long long>(snooped));
  // The SLO table goes to stderr: its proc.rss_kb rule reports the
  // process's own RSS trend, which moves with the binary, not with the
  // simulation, and stdout stays comparable byte for byte across builds.
  std::fprintf(stderr, "%s", watchdog.ToString().c_str());

  if (ctx.write_sidecars) {
    obs::TimelineMeta meta;
    meta.benchmark = ctx.name;
    meta.git_sha = bench::GitSha();
    meta.quick = ctx.quick;
    meta.horizon = horizon;
    const std::string path =
        bench::SidecarPath(base.c_str(), ".timeline.json");
    if (obs::WriteTextFileAtomic(
            path, obs::TimelineToJson(*net.telemetry(), &watchdog, meta))) {
      std::printf("timeline sidecar: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    }
  }

  if (ctx.write_sidecars) {
    std::vector<Point> positions;
    positions.reserve(net.num_nodes());
    for (NodeId i = 0; i < net.num_nodes(); ++i) {
      positions.push_back(net.position(i));
    }
    const obs::TopologyMonitor& topo = *net.topology_monitor();
    obs::TopoMapMeta topo_meta;
    topo_meta.benchmark = ctx.name;
    topo_meta.git_sha = bench::GitSha();
    topo_meta.quick = ctx.quick;
    topo_meta.t = net.now();
    topo_meta.extras = {
        {"horizon", static_cast<double>(horizon)},
        {"samples", static_cast<double>(topo.num_samples())},
        {"flaps_total", static_cast<double>(topo.churn().flaps_total())},
        {"elections_total",
         static_cast<double>(topo.churn().elections_total())},
    };
    bench::WriteTopoSidecar(base.c_str(), topo.last(), positions,
                            topo.link_observer().SortedLinks(), topo_meta);
  }

  if (!watchdog.healthy()) {
    std::printf("SOAK UNHEALTHY: %zu confirmed breach(es), blackbox at %s\n",
                watchdog.breaches().size(),
                telemetry_config.blackbox_path.c_str());
    ctx.exit_code = 1;
  } else {
    std::printf("soak healthy: no confirmed breaches\n");
  }
}
