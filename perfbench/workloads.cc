#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "api/experiment.h"
#include "api/network.h"
#include "common/rng.h"
#include "net/link_model.h"
#include "obs/profiler.h"
#include "query/parser.h"
#include "query/predicate.h"
#include "query/routing_tree.h"

namespace perfbench {
namespace {

using snapq::ElectionStats;
using snapq::MessageType;
using snapq::NodeId;
using snapq::NodeMode;
using snapq::Point;
using snapq::SensorNetwork;
using snapq::Time;

/// Stop timing new units this long after the process started, whatever
/// the unit count (the benchmark must end within 180 s).
constexpr double kHardCapSeconds = 140.0;

double ElapsedMs(int64_t since_ns) {
  return static_cast<double>(NowNs() - since_ns) / 1e6;
}

/// Sum of a message-type-indexed counter family.
template <typename Fn>
uint64_t SumOverTypes(Fn per_type) {
  uint64_t total = 0;
  for (size_t t = 0; t < snapq::kNumMessageTypes; ++t) {
    total += per_type(static_cast<MessageType>(t));
  }
  return total;
}

/// The registry counters the benchmark reads after every unit (cached
/// handles: reading them is a pointer load each).
struct Counters {
  explicit Counters(SensorNetwork& net) : net_(&net) {
    auto& reg = net.sim().registry();
    for (const char* action : {"inserted-free", "inserted-newcomer",
                               "time-shifted", "augmented", "rejected"}) {
      actions.push_back(reg.GetCounter(std::string("cache.action.") + action));
    }
    rejected = actions.back();
    refits = reg.GetCounter("model.refits");
  }

  struct Reading {
    uint64_t sent = 0, delivered = 0, snooped = 0, lost = 0;
    uint64_t observes = 0, rejected = 0, refits = 0;
    uint64_t journal = 0, spans = 0, dropped_spans = 0;
  };

  Reading Read() const {
    const snapq::Metrics& m = net_->sim().metrics();
    Reading r;
    r.sent = m.total_sent();
    r.delivered = m.total_delivered();
    r.lost = m.total_lost();
    r.snooped = SumOverTypes([&m](MessageType t) { return m.snooped(t); });
    for (const snapq::obs::Counter* c : actions) r.observes += c->value();
    r.rejected = rejected->value();
    r.refits = refits->value();
    r.journal = net_->sim().journal().events_emitted();
    if (const snapq::obs::Tracer* tracer = net_->tracer()) {
      r.spans = tracer->spans().size();
      r.dropped_spans = tracer->dropped_spans();
    }
    return r;
  }

  static Reading Delta(const Reading& a, const Reading& b) {
    Reading d;
    d.sent = b.sent - a.sent;
    d.delivered = b.delivered - a.delivered;
    d.snooped = b.snooped - a.snooped;
    d.lost = b.lost - a.lost;
    d.observes = b.observes - a.observes;
    d.rejected = b.rejected - a.rejected;
    d.refits = b.refits - a.refits;
    d.journal = b.journal - a.journal;
    d.spans = b.spans - a.spans;
    d.dropped_spans = b.dropped_spans - a.dropped_spans;
    return d;
  }

  std::vector<snapq::obs::Counter*> actions;
  snapq::obs::Counter* rejected = nullptr;
  snapq::obs::Counter* refits = nullptr;

 private:
  SensorNetwork* net_;
};

uint64_t ModelFits() {
  return snapq::obs::Profiler::Global().count(snapq::obs::HotOp::kModelFits);
}

size_t LiveUndefined(SensorNetwork& net) {
  size_t count = 0;
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    if (net.sim().alive(i) && net.agent(i).mode() == NodeMode::kUndefined) {
      ++count;
    }
  }
  return count;
}

size_t DirectedEdges(const snapq::LinkModel& links) {
  size_t edges = 0;
  for (NodeId i = 0; i < links.num_nodes(); ++i) {
    edges += links.Reachable(i).size();
  }
  return edges;
}

/// Times the LinkModel constructor on the network's current positions.
double ProbeLinkBuildMs(const SensorNetwork& net) {
  const snapq::LinkModel& links = net.sim().links();
  std::vector<Point> positions;
  std::vector<double> ranges;
  positions.reserve(links.num_nodes());
  ranges.reserve(links.num_nodes());
  for (NodeId i = 0; i < links.num_nodes(); ++i) {
    positions.push_back(links.position(i));
    ranges.push_back(links.range(i));
  }
  const int64_t start = NowNs();
  const snapq::LinkModel rebuilt(std::move(positions), std::move(ranges),
                                 links.loss_probability());
  const double ms = ElapsedMs(start);
  if (rebuilt.num_nodes() != links.num_nodes()) return -1.0;
  return ms;
}

/// Everything one run accumulates; turned into metrics at the end.
struct Run {
  explicit Run(const RunOptions& o) : options(o), process_start(NowNs()) {}

  const RunOptions& options;
  const int64_t process_start;
  SpanRecorder recorder;
  OkCounter ok;
  Digest digest;
  /// Failed checks by kind: count and the first occurrence's detail.
  std::map<std::string, std::pair<size_t, std::string>> failures;
  std::FILE* unit_log = nullptr;

  // End-to-end timings, normalised to the reference host's speed (see
  // HostSpeed).
  HostSpeed speed;
  snapq::SampleSet setup_s;
  snapq::SampleSet step_ms;   // untraced units
  snapq::SampleSet query_us;  // untraced queries
  // The same as wall times, for the report and the per-layer metrics.
  snapq::SampleSet wall_setup_s, wall_step_ms, wall_query_us;
  snapq::SampleSet traced_step_ms;  // traced units, wall (trace mode only)
  size_t units = 0;

  // Per-layer accumulators, keyed by metric name. `counts` take one value
  // per counted unit or query (see Counted), so they repeat exactly for a
  // seed; `times` take one value per timed call.
  std::map<std::string, snapq::SampleSet> counts;
  std::map<std::string, snapq::SampleSet> times;
  double snapshot_participants = 0.0, regular_participants = 0.0;
  double loop_ns = 0.0, loop_deliveries = 0.0;  // sim.ns_per_delivery
  double train_ns = 0.0, train_observes = 0.0;  // model.ns_per_observe
  double rss_setup_mb = 0.0, kb_per_node = 0.0;
  double obs_overhead_pct = 0.0, obs_round_share_pct = 0.0;

  /// Kill time of every node the workload killed, and how long after a
  /// representative's death its members may stay uncovered.
  std::map<NodeId, Time> killed_at;
  Time healing_window = 0;
  size_t healing_misses = 0;

  void Count(size_t unit, const std::string& name, double v) {
    if (Counted(unit)) counts[name].Add(v);
  }

  bool Fail(const std::string& kind, const std::string& detail = "") {
    auto& [count, first] = failures[kind];
    if (count++ == 0) first = detail;
    return false;
  }

  /// The recorder for unit `i` (the count index): traced runs trace every
  /// other unit so the untraced half measures the tracing overhead in the
  /// same process.
  SpanRecorder* RecorderFor(size_t i) {
    return options.trace && i % 2 == 0 ? &recorder : nullptr;
  }

  /// Units (per deployment, for the field workloads) whose outcome feeds
  /// the digest and the counts: a prefix that does not depend on how many
  /// units the host's speed lets a run time.
  size_t counted_units = kCountedUnits;
  bool Counted(size_t i) const { return i < counted_units; }

  /// Whether to time another unit: always until `min_units` are done,
  /// then while the timed loop has run less than `until_s` seconds; never
  /// past `max_units` or the process's hard cap.
  bool KeepGoing(size_t done, size_t min_units, double loop_s, double until_s,
                 size_t max_units) const {
    const double since_process =
        static_cast<double>(NowNs() - process_start) / 1e9;
    if (since_process > kHardCapSeconds || done >= max_units) return false;
    return done < min_units || loop_s < until_s;
  }

  /// Probes the host right after a timed unit and records the unit.
  void RecordStep(SpanRecorder* rec, double ms) {
    speed.Probe();
    if (rec != nullptr) {
      traced_step_ms.Add(ms);
      return;
    }
    step_ms.Add(speed.Normalize(ms));
    wall_step_ms.Add(ms);
  }

  /// Probes the host right after a timed set-up and records it.
  void RecordSetup(double s) {
    speed.Probe();
    setup_s.Add(speed.Normalize(s));
    wall_setup_s.Add(s);
  }

  /// Records an untraced query against the current probe window.
  void RecordQuery(double us) {
    query_us.Add(speed.Normalize(us));
    wall_query_us.Add(us);
  }

  void RecordCounts(size_t i, const Counters::Reading& d) {
    if (!Counted(i)) return;
    Count(i, "sim.sent", static_cast<double>(d.sent));
    Count(i, "sim.delivered", static_cast<double>(d.delivered));
    Count(i, "sim.snooped", static_cast<double>(d.snooped));
    Count(i, "sim.lost", static_cast<double>(d.lost));
    Count(i, "model.observes", static_cast<double>(d.observes));
    Count(i, "model.refits", static_cast<double>(d.refits));
    Count(i, "obs.journal_events", static_cast<double>(d.journal));
    Count(i, "obs.spans", static_cast<double>(d.spans));
    Count(i, "obs.dropped_spans", static_cast<double>(d.dropped_spans));
    if (d.observes > 0) {
      Count(i, "model.admit_ratio",
            static_cast<double>(d.observes - d.rejected) /
                static_cast<double>(d.observes));
    }
    digest.Add(d.sent);
    digest.Add(d.delivered);
    digest.Add(d.snooped);
    digest.Add(d.lost);
    digest.Add(d.observes);
  }

  void LogUnit(size_t i, const std::string& line) {
    if (unit_log != nullptr && Counted(i)) {
      std::fprintf(unit_log, "%zu\t%s\t%s\n", i, line.c_str(),
                   digest.Hex().c_str());
    }
  }
};

/// Run-time bracket for the traced run: profiler on, fits counted.
class TracedUnit {
 public:
  explicit TracedUnit(SpanRecorder* rec) : on_(rec != nullptr) {
    if (on_) {
      snapq::obs::Profiler::Enable();
      fits_before_ = ModelFits();
    }
  }
  ~TracedUnit() {
    if (on_) snapq::obs::Profiler::Disable();
  }
  TracedUnit(const TracedUnit&) = delete;
  TracedUnit& operator=(const TracedUnit&) = delete;

  std::optional<uint64_t> Fits() const {
    if (!on_) return std::nullopt;
    return ModelFits() - fits_before_;
  }

 private:
  bool on_;
  uint64_t fits_before_ = 0;
};

// -- Queries ---------------------------------------------------------------

/// One executed statement of a pair.
struct Answer {
  bool ok = false;
  snapq::QueryResult result;
};

/// Runs `sql` the way the client would (SensorNetwork::Query). Traced: the
/// same work split into its parse and execute calls, plus the routing tree
/// built again on its own for query.route_us.
Answer RunQuery(Run& run, SensorNetwork& net, const std::string& sql,
                NodeId sink, SpanRecorder* rec, int64_t query_id) {
  snapq::ExecutionOptions options;
  options.sink = sink;
  Answer answer;
  if (rec == nullptr) {
    const int64_t start = NowNs();
    snapq::Result<snapq::QueryResult> result = net.Query(sql, options);
    run.RecordQuery(static_cast<double>(NowNs() - start) / 1e3);
    answer.ok = result.ok();
    if (answer.ok) answer.result = std::move(*result);
    if (!answer.ok) run.Fail("query error", result.status().ToString());
    return answer;
  }
  {
    ScopedSpan query_span(rec, "api.query", query_id);
    snapq::Result<snapq::QuerySpec> spec = [&] {
      ScopedSpan s(rec, "query.parse");
      return snapq::ParseQuery(sql);
    }();
    if (spec.ok()) {
      options.audit = net.accuracy_auditor();
      ScopedSpan s(rec, "query.exec");
      snapq::Result<snapq::QueryResult> result =
          net.executor().Execute(*spec, options);
      answer.ok = result.ok();
      if (answer.ok) answer.result = std::move(*result);
      if (!answer.ok) run.Fail("query error", result.status().ToString());
    } else {
      run.Fail("parse error", spec.status().ToString());
    }
  }
  std::vector<bool> alive(net.num_nodes());
  for (NodeId i = 0; i < net.num_nodes(); ++i) alive[i] = net.sim().alive(i);
  const int64_t start = NowNs();
  const snapq::RoutingTree tree =
      snapq::RoutingTree::Build(net.sim().links(), alive, sink);
  run.times["query.route_us"].Add(static_cast<double>(NowNs() - start) / 1e3);
  if (tree.num_nodes() != net.num_nodes()) run.Fail("routing tree size");
  return answer;
}

/// Whether live node `id` is healing: PASSIVE under a representative the
/// workload killed within the heartbeat detection window (the paper's
/// self-healing, §5.1). A snapshot answer may miss such a node.
bool IsHealing(const Run& run, SensorNetwork& net, NodeId id) {
  const snapq::SnapshotAgent& a = net.agent(id);
  const auto death = run.killed_at.find(a.representative());
  return a.mode() == NodeMode::kPassive && death != run.killed_at.end() &&
         net.now() - death->second <= run.healing_window;
}

constexpr const char* kFewerCovered =
    "snapshot answer covers fewer live reachable matching nodes than the "
    "regular answer";

/// Checks an aggregate pair by its counts (an aggregate has no rows): the
/// regular answer covers exactly the live, reachable, matching nodes, and
/// the snapshot answer may fall short of it only by nodes that are healing.
bool CheckAggregatePair(Run& run, SensorNetwork& net, const std::string& sql,
                        const Answer& snap, const Answer& regular) {
  bool ok = true;
  if (snap.result.covered_nodes > 0 && !snap.result.aggregate.has_value()) {
    ok = run.Fail("snapshot aggregate missing");
  }
  const size_t want = regular.result.covered_nodes;
  const size_t have = snap.result.covered_nodes;
  if (have >= want) return ok;
  const snapq::Result<snapq::QuerySpec> spec = snapq::ParseQuery(sql);
  if (!spec.ok()) return run.Fail("parse error", spec.status().ToString());
  const snapq::Rect everywhere{-1e300, -1e300, 1e300, 1e300};
  const snapq::Result<snapq::Rect> region =
      snapq::ResolveRegion(*spec, net.executor().catalog(), everywhere);
  if (!region.ok()) return run.Fail("region error", region.status().ToString());
  size_t healing = 0;
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    if (net.sim().alive(i) && region->Contains(net.position(i)) &&
        IsHealing(run, net, i)) {
      ++healing;
    }
  }
  const size_t shortfall = want - have;
  run.healing_misses += std::min(shortfall, healing);
  if (shortfall > healing) {
    ok = run.Fail(kFewerCovered,
                  "aggregate covers " + std::to_string(have) + " of " +
                      std::to_string(want) + " at t=" +
                      std::to_string(net.now()) + ", " +
                      std::to_string(healing) + " healing");
  }
  return ok;
}

/// Checks a snapshot/regular pair issued at the same instant over the same
/// region. Returns whether the snapshot answer passes the gate.
bool CheckPair(Run& run, SensorNetwork& net, const std::string& sql,
               const Answer& snap, const Answer& regular) {
  if (!snap.ok || !regular.ok) return false;
  if (sql.rfind("SELECT *", 0) != 0) {
    return CheckAggregatePair(run, net, sql, snap, regular);
  }
  bool ok = true;
  std::set<NodeId> covered;
  for (const snapq::QueryRow& row : snap.result.rows) {
    covered.insert(row.loc);
    const bool self = !row.estimated && row.reporter == row.loc;
    const bool by_rep = row.estimated && row.reporter < net.num_nodes() &&
                        net.agent(row.reporter).mode() == NodeMode::kActive;
    if (!self && !by_rep) {
      ok = run.Fail("USE SNAPSHOT claim from a node that is neither a "
                    "representative nor self-reporting",
                    "node " + std::to_string(row.loc) + " claimed by " +
                        std::to_string(row.reporter) + " (" +
                        snapq::NodeModeName(net.agent(row.reporter).mode()) +
                        ") at t=" + std::to_string(net.now()));
    }
  }
  // The regular answer is exactly the live, reachable, matching nodes. A
  // node the snapshot answer misses is excused only while it is healing.
  size_t missing = 0;
  std::string why;
  for (const snapq::QueryRow& row : regular.result.rows) {
    if (covered.count(row.loc) != 0) continue;
    if (IsHealing(run, net, row.loc)) {
      ++run.healing_misses;
      continue;
    }
    ++missing;
    if (why.empty()) {
      const snapq::SnapshotAgent& a = net.agent(row.loc);
      why = "; node " + std::to_string(row.loc) + " is " +
            snapq::NodeModeName(a.mode()) + " under " +
            std::to_string(a.representative());
    }
  }
  if (missing > 0) {
    ok = run.Fail(kFewerCovered,
                  std::to_string(missing) + " of " +
                      std::to_string(regular.result.rows.size()) +
                      " missing at t=" + std::to_string(net.now()) + why);
  }
  return ok;
}

void DigestAnswer(Run& run, size_t unit, const Answer& a) {
  if (!run.Counted(unit)) return;
  run.digest.Add(static_cast<uint64_t>(a.result.covered_nodes));
  run.digest.Add(static_cast<uint64_t>(a.result.participants));
  if (a.result.aggregate.has_value()) run.digest.Add(*a.result.aggregate);
  for (const snapq::QueryRow& row : a.result.rows) {
    run.digest.Add(static_cast<uint64_t>(row.loc));
    run.digest.Add(row.value);
  }
}

/// Issues `statements` (snapshot/regular pairs, in that order) from
/// `sinks` and checks every pair. `unit` is the count index (see
/// Run::Counted); `unit_id` numbers the traced queries.
void RunQueryPairs(Run& run, SensorNetwork& net,
                   const std::vector<std::string>& statements,
                   const std::vector<NodeId>& sinks, size_t unit,
                   size_t unit_id, SpanRecorder* rec) {
  for (size_t q = 0; q + 1 < statements.size(); q += 2) {
    const NodeId sink = sinks[(q / 2) % sinks.size()];
    const auto id = static_cast<int64_t>(unit_id * 1000 + q);
    const Answer snap = RunQuery(run, net, statements[q], sink, rec, id);
    const Answer regular =
        RunQuery(run, net, statements[q + 1], sink, rec, id + 1);
    const bool pair_ok = CheckPair(run, net, statements[q], snap, regular);
    run.ok.Record(pair_ok);
    run.ok.Record(regular.ok);
    DigestAnswer(run, unit, snap);
    DigestAnswer(run, unit, regular);
    if (run.Counted(unit) && snap.ok && regular.ok) {
      for (const Answer* a : {&snap, &regular}) {
        run.Count(unit, "query.participants",
                  static_cast<double>(a->result.participants));
        run.Count(unit, "query.responders",
                  static_cast<double>(a->result.responders));
      }
      run.snapshot_participants +=
          static_cast<double>(snap.result.participants);
      run.regular_participants +=
          static_cast<double>(regular.result.participants);
    }
  }
}

std::string RectSql(const snapq::Rect& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "RECT(%.4f, %.4f, %.4f, %.4f)", r.min_x,
                r.min_y, r.max_x, r.max_y);
  return buf;
}

/// Snapshot/regular statement pairs (snapshot first). Each pair selects
/// `*` (drill-through) or, with `aggregates`, half the time an aggregate.
/// Its region is EVERYWHERE with probability `everywhere`, else a seeded
/// square whose side is uniform in [min_side, max_side]. Region sizes are
/// continuous so that query cost has no gap for a percentile to sit in
/// (with a few fixed regions, p90 fell between two clusters).
std::vector<std::string> QueryPairs(snapq::Rng& rng, size_t pairs,
                                    double min_side, double max_side,
                                    double everywhere, bool aggregates) {
  static const char* const kAggregates[] = {"avg(value)", "max(value)",
                                            "min(value)", "sum(value)"};
  std::vector<std::string> out;
  for (size_t k = 0; k < pairs; ++k) {
    std::string select = "*";
    if (aggregates && rng.Bernoulli(0.5)) {
      select = kAggregates[rng.UniformInt(0, 3)];
    }
    std::string region = "EVERYWHERE";
    if (!rng.Bernoulli(everywhere)) {
      const double side = rng.UniformDouble(min_side, max_side);
      const double x = rng.UniformDouble(0.0, 1.0 - side);
      const double y = rng.UniformDouble(0.0, 1.0 - side);
      region = RectSql(snapq::Rect{x, y, x + side, y + side});
    }
    const std::string sql =
        "SELECT " + select + " FROM sensors WHERE loc IN " + region;
    out.push_back(sql + " USE SNAPSHOT");
    out.push_back(sql);
  }
  return out;
}

// -- dense_elect -------------------------------------------------------------

/// Trial seeds per cycle: more than a run's units, so the step median
/// rests on that many distinct trials (per-trial cost varies with the
/// data by up to 2x). Odd, so a traced run's traced (even) and untraced
/// (odd) units see the same seeds over two cycles.
constexpr size_t kDenseSeedCycle = 1001;
/// The run is split into kDensePhases equal shares, each opened by
/// kDenseSetupsPerPhase timed set-ups, so setup_s rests on set-ups taken
/// at as many points of the run.
constexpr int kDensePhases = 9;
constexpr int kDenseSetupsPerPhase = 2;
constexpr size_t kDenseMaxUnits = 100000;

struct DenseTrial {
  std::unique_ptr<SensorNetwork> net;
  ElectionStats stats;
  double train_ms = 0.0;
  double election_ms = 0.0;
  uint64_t train_observes = 0;
};

/// Build, train, elect: the §6.1 pipeline, each stage its own span.
DenseTrial RunDenseTrial(uint64_t trial_seed, SpanRecorder* rec) {
  snapq::SensitivityConfig config;  // §6.1 defaults: N=100, K=10, T=1, ...
  config.seed = trial_seed;
  DenseTrial trial;
  {
    ScopedSpan s(rec, "api.build_trial");
    trial.net = snapq::BuildSensitivityNetwork(config);
  }
  Counters counters(*trial.net);
  {
    const int64_t start = NowNs();
    ScopedSpan s(rec, "snapshot.train");
    trial.net->RunUntil(config.discovery_time);
    trial.train_ms = ElapsedMs(start);
  }
  trial.train_observes = counters.Read().observes;
  {
    const int64_t start = NowNs();
    ScopedSpan s(rec, "snapshot.election");
    trial.stats = trial.net->RunElection(config.discovery_time);
    trial.election_ms = ElapsedMs(start);
  }
  return trial;
}

void RunDenseElect(Run& run) {
  std::vector<uint64_t> seeds;
  const std::optional<int64_t> rss_before = ReadStatusKb("VmRSS");
  size_t setups = 0;
  // One set-up: input generation plus one warm-up trial.
  const auto set_up = [&] {
    const int64_t start = NowNs();
    seeds = DenseTrialSeeds(run.options.seed);
    DenseTrial warm =
        RunDenseTrial(seeds[seeds.size() - 1 - setups], nullptr);
    if (setups == 0) {
      const std::optional<int64_t> rss_live = ReadStatusKb("VmRSS");
      if (rss_before && rss_live) {
        run.kb_per_node = static_cast<double>(*rss_live - *rss_before) /
                          static_cast<double>(warm.net->num_nodes());
      }
    }
    warm.net.reset();
    run.RecordSetup(static_cast<double>(NowNs() - start) / 1e9);
    ++setups;
  };

  const std::vector<NodeId> sinks{0};
  double loop_s = 0.0;  // timed-loop seconds so far, set-ups excluded
  size_t i = 0;
  for (int phase = 0; phase < kDensePhases; ++phase) {
    for (int k = 0; k < kDenseSetupsPerPhase; ++k) set_up();
    if (phase == 0) {
      if (auto rss = ReadStatusKb("VmRSS")) run.rss_setup_mb = *rss / 1024.0;
    }
    const size_t min_units =
        (kCountedUnits * static_cast<size_t>(phase + 1) + kDensePhases - 1) /
        kDensePhases;
    const double until_s = run.options.seconds * (phase + 1) / kDensePhases;
    const int64_t loop_start = NowNs();
    const double loop_before = loop_s;
    for (; run.KeepGoing(i, min_units, loop_s, until_s, kDenseMaxUnits);
         ++i, loop_s = loop_before +
                       static_cast<double>(NowNs() - loop_start) / 1e9) {
      SpanRecorder* rec = run.RecorderFor(i);
      const uint64_t trial_seed = seeds[i % seeds.size()];
      ScopedSpan unit_span(rec, "unit", static_cast<int64_t>(i));
      TracedUnit traced(rec);

      const int64_t t0 = NowNs();
      DenseTrial trial = RunDenseTrial(trial_seed, rec);
      const double work_ms = ElapsedMs(t0);
      SensorNetwork& net = *trial.net;

      // Checks and probes, outside the timed step.
      const ElectionStats& st = trial.stats;
      bool ok = true;
      if (LiveUndefined(net) > 0) {
        ok = run.Fail("election left a live node UNDEFINED");
      }
      if (st.max_messages_per_node > 6.0) {
        ok = run.Fail("election max_messages_per_node above 6",
                      std::to_string(st.max_messages_per_node));
      }
      const Counters::Reading totals = Counters(net).Read();
      if (run.Counted(i)) {
        run.digest.Add(trial_seed);
        run.digest.Add(static_cast<uint64_t>(st.num_active));
        run.digest.Add(static_cast<uint64_t>(st.num_passive));
        run.digest.Add(st.avg_messages_per_node);
        run.Count(i, "snapshot.size", static_cast<double>(st.num_active));
        run.Count(i, "snapshot.spurious",
                  static_cast<double>(st.num_spurious));
        run.Count(i, "snapshot.election_msgs_per_node",
                  st.avg_messages_per_node);
        run.Count(i, "net.edges",
                  static_cast<double>(DirectedEdges(net.sim().links())));
      }
      run.RecordCounts(i, totals);
      if (rec != nullptr) {
        if (auto fits = traced.Fits()) {
          run.Count(i, "model.fits", static_cast<double>(*fits));
        }
        run.train_ns += trial.train_ms * 1e6;
        run.train_observes += static_cast<double>(trial.train_observes);
        run.loop_ns += (trial.train_ms + trial.election_ms) * 1e6;
        run.loop_deliveries +=
            static_cast<double>(totals.delivered + totals.snooped);
        run.times["net.build_ms"].Add(ProbeLinkBuildMs(net));
        const int64_t ctor_start = NowNs();
        { const SensorNetwork probe(net.config()); }
        run.times["api.network_ctor_ms"].Add(ElapsedMs(ctor_start));
      }

      snapq::Rng query_rng(DeriveSeed(
          run.options.seed, "perfbench.dense_queries." + std::to_string(i)));
      RunQueryPairs(run, net, QueryPairs(query_rng, 1, 0.3, 1.0, 0.0, false),
                    sinks, i, i, rec);

      const int64_t t2 = NowNs();
      {
        ScopedSpan s(rec, "api.destroy");
        trial.net.reset();
      }
      run.RecordStep(rec, work_ms + ElapsedMs(t2));
      run.ok.Record(ok);
      char line[160];
      std::snprintf(line, sizeof(line),
                    "seed=%llu reps=%zu passive=%zu msgs/node=%.4f max=%.0f "
                    "sent=%llu",
                    static_cast<unsigned long long>(trial_seed), st.num_active,
                    st.num_passive, st.avg_messages_per_node,
                    st.max_messages_per_node,
                    static_cast<unsigned long long>(totals.sent));
      run.LogUnit(i, line);
    }
  }
  run.units = i;
}

// -- Field deployments (scale_maintain, monitored_serve) -------------------

constexpr Time kTrainingTicks = 10;
constexpr Time kRoundTicks = 20;
constexpr Time kElectionSlack = 80;
constexpr Time kSampleTicks = 5;

/// Rounds scheduled per deployment; a run stops timing well before.
constexpr size_t kMaxRounds = 1000;

struct FieldSpec {
  size_t nodes = 0;
  double loss = 0.0;
  bool observers = false;
};

/// The scale_sweep recipe: density-constant range 0.2*sqrt(100/n), 5%
/// snooping, T=0.1, and a closed-form two-driver correlated field that
/// drifts every tick. Built, trained and elected in the constructor.
class FieldDeployment {
 public:
  FieldDeployment(const FieldSpec& spec, uint64_t seed, SpanRecorder* rec)
      : spec_(spec) {
    snapq::NetworkConfig config;
    config.num_nodes = spec.nodes;
    config.transmission_range =
        0.2 * std::sqrt(100.0 / static_cast<double>(spec.nodes));
    config.loss_probability = spec.loss;
    config.snoop_probability = 0.05;
    config.snapshot.threshold = 0.1;
    config.seed = seed;
    {
      const int64_t start = NowNs();
      ScopedSpan s(rec, "api.network_ctor");
      net_ = std::make_unique<SensorNetwork>(config);
      ctor_ms_ = ElapsedMs(start);
    }
    if (spec.observers) {
      ScopedSpan s(rec, "obs.attach");
      AttachObservers(seed);
    }
    {
      ScopedSpan s(rec, "data.schedule");
      ScheduleField();
    }
    counters_ = std::make_unique<Counters>(*net_);
    {
      const int64_t start = NowNs();
      ScopedSpan s(rec, "snapshot.train");
      net_->ScheduleTrainingBroadcasts(0, kTrainingTicks);
      net_->RunUntil(kTrainingTicks);
      train_ms_ = ElapsedMs(start);
    }
    train_observes_ = counters_->Read().observes;
    {
      const int64_t start = NowNs();
      ScopedSpan s(rec, "snapshot.election");
      election_ = net_->RunElection(kTrainingTicks);
      election_ms_ = ElapsedMs(start);
    }
    first_round_ = net_->now() + kRoundTicks;
    net_->ScheduleMaintenance(
        first_round_,
        first_round_ + static_cast<Time>(kMaxRounds) * kRoundTicks,
        kRoundTicks,
        [this](const snapq::MaintenanceRoundStats& s) { last_round_ = s; });
  }

  SensorNetwork& net() { return *net_; }
  const Counters& counters() const { return *counters_; }
  const ElectionStats& election() const { return election_; }
  const snapq::MaintenanceRoundStats& last_round() const { return last_round_; }
  double ctor_ms() const { return ctor_ms_; }
  double train_ms() const { return train_ms_; }
  double election_ms() const { return election_ms_; }
  uint64_t train_observes() const { return train_observes_; }
  bool failed_rules() const { return failed_rules_; }

  /// Runs round `r` up to its measurement instant: the maintenance tick at
  /// its start, the settle window, and (with observers) a telemetry sample
  /// every 5 ticks. Returns the event-loop time spent.
  double RunRound(size_t r, SpanRecorder* rec, snapq::SampleSet* sample_ms) {
    const Time start = first_round_ + static_cast<Time>(r) * kRoundTicks;
    double loop_ms = 0.0;
    for (Time t = start + kSampleTicks - 1; t < start + kRoundTicks;
         t += kSampleTicks) {
      {
        const int64_t begin = NowNs();
        ScopedSpan s(rec, "sim.run");
        net_->RunUntil(t);
        loop_ms += ElapsedMs(begin);
      }
      if (spec_.observers) {
        const int64_t begin = NowNs();
        ScopedSpan s(rec, "obs.sample");
        net_->SampleTelemetry();
        if (sample_ms != nullptr) sample_ms->Add(ElapsedMs(begin));
      }
    }
    return loop_ms;
  }

 private:
  void AttachObservers(uint64_t seed) {
    snapq::obs::TelemetryConfig telemetry;
    telemetry.sample_interval = kSampleTicks;
    net_->EnableTelemetry(telemetry);
    net_->EnableEnergyLedger();
    net_->EnableAccuracyAudit();
    net_->EnableTopologyMonitor();
    snapq::obs::TracerConfig tracer;
    tracer.sampling = 0.05;
    tracer.seed = seed;
    net_->EnableTracing(tracer);
    for (const char* rule :
         {"health.coverage value >= 0.5 for 400",
          "health.spurious_reps ewma <= 250", "proc.rss_kb slope <= 64",
          "topo.partitions value <= 50 for 400",
          "churn.flap_rate ewma <= 300"}) {
      if (!net_->AddSloRule(rule)) failed_rules_ = true;
    }
  }

  /// Pre-schedules a reading for every node at every tick of the run, ahead
  /// of any protocol event of the same tick (FIFO tie-break).
  void ScheduleField() {
    const size_t n = spec_.nodes;
    w1_.resize(n);
    w2_.resize(n);
    offset_.resize(n);
    values_.resize(n);
    for (NodeId i = 0; i < n; ++i) {
      const Point& p = net_->position(i);
      const double l2 = 2.0 * 0.3 * 0.3;
      const double d1 = (p.x - 0.25) * (p.x - 0.25) + (p.y - 0.3) * (p.y - 0.3);
      const double d2 = (p.x - 0.75) * (p.x - 0.75) + (p.y - 0.7) * (p.y - 0.7);
      w1_[i] = std::exp(-d1 / l2);
      w2_[i] = std::exp(-d2 / l2);
      offset_[i] = 40.0 + 20.0 * p.x + 10.0 * p.y;
    }
    const Time horizon = kTrainingTicks + kElectionSlack +
                         (static_cast<Time>(kMaxRounds) + 2) * kRoundTicks;
    for (Time t = 0; t < horizon; ++t) {
      net_->sim().ScheduleAt(t, [this, t] { ApplyField(t); });
    }
  }

  void ApplyField(Time t) {
    const double d1 = 10.0 * std::sin(0.13 * static_cast<double>(t));
    const double d2 = 10.0 * std::cos(0.07 * static_cast<double>(t) + 1.0);
    for (size_t i = 0; i < values_.size(); ++i) {
      values_[i] = offset_[i] + w1_[i] * d1 + w2_[i] * d2;
    }
    net_->SetMeasurements(values_);
  }

  FieldSpec spec_;
  std::unique_ptr<SensorNetwork> net_;
  std::unique_ptr<Counters> counters_;
  std::vector<double> w1_, w2_, offset_, values_;
  ElectionStats election_;
  snapq::MaintenanceRoundStats last_round_;
  Time first_round_ = 0;
  double ctor_ms_ = 0.0, train_ms_ = 0.0, election_ms_ = 0.0;
  uint64_t train_observes_ = 0;
  bool failed_rules_ = false;
};

/// Finds live nodes left UNDEFINED by a local re-election: still UNDEFINED
/// in the same election epoch longer than an election may take (max_wait
/// plus the Rule-4 hard cap). Nodes caught mid-election are not counted.
class UndefinedWatch {
 public:
  explicit UndefinedWatch(SensorNetwork& net)
      : bound_(net.agent(0).config().max_wait +
               net.agent(0).config().rule4_hard_cap),
        seen_(net.num_nodes(), {-1, 0}) {}

  size_t Stuck(SensorNetwork& net) {
    size_t stuck = 0;
    for (NodeId i = 0; i < net.num_nodes(); ++i) {
      auto& [epoch, since] = seen_[i];
      if (!net.sim().alive(i) || net.agent(i).mode() != NodeMode::kUndefined) {
        epoch = -1;
        continue;
      }
      if (epoch != net.agent(i).epoch()) {
        epoch = net.agent(i).epoch();
        since = net.now();
      } else if (net.now() - since > bound_) {
        ++stuck;
      }
    }
    return stuck;
  }

 private:
  Time bound_;
  std::vector<std::pair<int64_t, Time>> seen_;
};

/// Node deaths: one live, non-gateway node every kKillEvery rounds.
constexpr size_t kKillEvery = 20;

std::optional<NodeId> PickVictim(snapq::Rng& rng, SensorNetwork& net,
                                 const std::vector<NodeId>& keep) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto id = static_cast<NodeId>(
        rng.UniformInt(0, static_cast<int64_t>(net.num_nodes()) - 1));
    if (!net.sim().alive(id)) continue;
    if (std::find(keep.begin(), keep.end(), id) != keep.end()) continue;
    return id;
  }
  return std::nullopt;
}

/// One node's waypoint step in a scale_maintain round.
struct Move {
  NodeId node = snapq::kInvalidNode;
  Point to;
};

/// Waypoint mobility: each round about 1% of the nodes take a short step
/// toward their own waypoint, drawing a new one on arrival.
class Mobility {
 public:
  Mobility(uint64_t seed, std::vector<Point> start, double step)
      : rng_(DeriveSeed(seed, "perfbench.mobility")),
        position_(std::move(start)),
        waypoint_(position_.size()),
        step_(step) {
    for (Point& w : waypoint_) w = {rng_.NextDouble(), rng_.NextDouble()};
  }

  std::vector<Move> NextRound() {
    const size_t n = position_.size();
    const size_t count = std::max<size_t>(1, n / 100);
    std::vector<Move> moves;
    moves.reserve(count);
    for (size_t k = 0; k < count; ++k) {
      const auto id = static_cast<NodeId>(
          rng_.UniformInt(0, static_cast<int64_t>(n) - 1));
      Point& p = position_[id];
      Point& w = waypoint_[id];
      const double dx = w.x - p.x, dy = w.y - p.y;
      const double dist = std::sqrt(dx * dx + dy * dy);
      if (dist <= step_) {
        p = w;
        w = {rng_.NextDouble(), rng_.NextDouble()};
      } else {
        p = {p.x + dx / dist * step_, p.y + dy / dist * step_};
      }
      moves.push_back({id, p});
    }
    return moves;
  }

 private:
  snapq::Rng rng_;
  std::vector<Point> position_;
  std::vector<Point> waypoint_;
  double step_;
};

/// The shared round loop of the field workloads.
struct FieldWorkload {
  FieldSpec spec;
  bool mobile = false;
  /// Set-ups timed per deployment; the last one is served.
  int setups = 1;
  /// Snapshot/regular statement pairs for query round k, where
  /// k = deployment * kMaxRounds + round: every deployment gets its own.
  std::function<std::vector<std::string>(size_t)> queries;
};

std::vector<NodeId> Gateways(SensorNetwork& net) {
  // The node nearest each quadrant centre: fixed for a deployment.
  std::vector<NodeId> gateways;
  for (const Point c : {Point{0.25, 0.25}, Point{0.75, 0.25},
                        Point{0.25, 0.75}, Point{0.75, 0.75}}) {
    NodeId best = 0;
    double best_d = 1e300;
    for (NodeId i = 0; i < net.num_nodes(); ++i) {
      const Point& p = net.position(i);
      const double d = (p.x - c.x) * (p.x - c.x) + (p.y - c.y) * (p.y - c.y);
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    gateways.push_back(best);
  }
  return gateways;
}

/// Rounds the observer-free twin of monitored_serve runs for
/// obs.overhead_pct (traced runs only).
constexpr size_t kTwinRounds = 100;

snapq::SampleSet RunTwinRounds(const FieldSpec& observed, uint64_t seed,
                               size_t rounds) {
  FieldSpec spec = observed;
  spec.observers = false;
  FieldDeployment twin(spec, seed, nullptr);
  const std::vector<NodeId> gateways = Gateways(twin.net());
  snapq::Rng death_rng(DeriveSeed(seed, "perfbench.deaths"));
  snapq::SampleSet steps;
  for (size_t r = 0; r < rounds; ++r) {
    const int64_t start = NowNs();
    if (r % kKillEvery == kKillEvery / 2) {
      if (auto victim = PickVictim(death_rng, twin.net(), gateways)) {
        twin.net().sim().Kill(*victim);
      }
    }
    twin.RunRound(r, nullptr, nullptr);
    steps.Add(ElapsedMs(start));
  }
  return steps;
}

/// Deployments a field workload serves one after another, each for an
/// equal share of the run, so the step median rests on several placements
/// rather than one, and the set-ups are timed at as many points of the run.
constexpr int kFieldDeployments = 9;

void RunField(Run& run, const FieldWorkload& w) {
  const size_t min_units =
      (kCountedUnits + kFieldDeployments - 1) / kFieldDeployments;
  run.counted_units = min_units;
  double loop_s = 0.0;  // timed-loop seconds so far, set-ups excluded
  size_t unit = 0;      // unit index across deployments
  snapq::SampleSet first_steps;  // deployment 0's untraced steps
  snapq::SampleSet& sample_ms = run.times["obs.sample_ms"];
  snapq::SampleSet& move_us = run.times["net.set_position_us"];
  snapq::SampleSet& round_ms = run.times["snapshot.maint_round_ms"];

  for (int d = 0; d < kFieldDeployments; ++d) {
    const uint64_t seed = DeriveSeed(
        run.options.seed, "perfbench.deployment." + std::to_string(d));
    // Set the deployment up `w.setups` times and serve the last build:
    // setup_s is the median over every build of the run. The first build of
    // the run alone gives the memory probes.
    const std::optional<int64_t> rss_before = ReadStatusKb("VmRSS");
    std::unique_ptr<FieldDeployment> dep;
    for (int k = 0; k < w.setups; ++k) {
      dep.reset();
      const bool served = k + 1 == w.setups;
      const int64_t setup_start = NowNs();
      dep = std::make_unique<FieldDeployment>(
          w.spec, seed,
          served && run.options.trace ? &run.recorder : nullptr);
      run.RecordSetup(static_cast<double>(NowNs() - setup_start) / 1e9);
      run.times["api.network_ctor_ms"].Add(dep->ctor_ms());
      run.times["snapshot.train_ms"].Add(dep->train_ms());
      run.times["snapshot.election_ms"].Add(dep->election_ms());
      if (d == 0 && k == 0) {
        const std::optional<int64_t> rss_after = ReadStatusKb("VmRSS");
        if (rss_after) {
          run.rss_setup_mb = static_cast<double>(*rss_after) / 1024.0;
        }
        if (rss_before && rss_after) {
          run.kb_per_node = static_cast<double>(*rss_after - *rss_before) /
                            static_cast<double>(dep->net().num_nodes());
        }
      }
    }
    SensorNetwork& net = dep->net();
    if (run.options.trace) {
      run.times["net.build_ms"].Add(ProbeLinkBuildMs(net));
      run.train_ns += dep->train_ms() * 1e6;
      run.train_observes += static_cast<double>(dep->train_observes());
    }
    run.counts["net.edges"].Add(
        static_cast<double>(DirectedEdges(net.sim().links())));
    run.counts["snapshot.election_msgs_per_node"].Add(
        dep->election().avg_messages_per_node);
    run.digest.Add(static_cast<uint64_t>(dep->election().num_active));
    run.digest.Add(dep->election().avg_messages_per_node);
    bool setup_ok = LiveUndefined(net) == 0 ||
                    run.Fail("election left a live node UNDEFINED");
    if (dep->failed_rules()) setup_ok = run.Fail("SLO rule rejected");
    run.ok.Record(setup_ok);

    const std::vector<NodeId> gateways = Gateways(net);
    snapq::Rng death_rng(DeriveSeed(seed, "perfbench.deaths"));
    UndefinedWatch undefined(net);
    run.killed_at.clear();
    run.healing_window =
        net.agent(0).config().heartbeat_miss_limit * kRoundTicks;
    std::vector<Point> start_positions;
    for (NodeId i = 0; i < net.num_nodes(); ++i) {
      start_positions.push_back(net.position(i));
    }
    Mobility mobility(seed, std::move(start_positions),
                      0.25 * net.config().transmission_range);

    const double until_s =
        run.options.seconds * (d + 1) / kFieldDeployments;
    const int64_t loop_start = NowNs();
    const double loop_before = loop_s;
    size_t r = 0;
    for (; run.KeepGoing(r, min_units, loop_s, until_s, kMaxRounds);
         ++r, ++unit,
         loop_s = loop_before + static_cast<double>(NowNs() - loop_start) / 1e9) {
      SpanRecorder* rec = run.RecorderFor(r);
      ScopedSpan unit_span(rec, "unit", static_cast<int64_t>(unit));
      TracedUnit traced(rec);
      const Counters::Reading before = dep->counters().Read();

      const int64_t t0 = NowNs();
      if (w.mobile) {
        for (const Move& m : mobility.NextRound()) {
          if (rec == nullptr) {
            net.sim().MoveNode(m.node, m.to);
            continue;
          }
          const int64_t begin = NowNs();
          ScopedSpan s(rec, "net.set_position");
          net.sim().MoveNode(m.node, m.to);
          move_us.Add(static_cast<double>(NowNs() - begin) / 1e3);
        }
      }
      std::optional<NodeId> victim;
      if (r % kKillEvery == kKillEvery / 2) {
        victim = PickVictim(death_rng, net, gateways);
        if (victim) {
          ScopedSpan s(rec, "sim.kill");
          net.sim().Kill(*victim);
          run.killed_at[*victim] = net.now();
        }
      }
      const double loop_ms =
          dep->RunRound(r, rec, rec != nullptr ? &sample_ms : nullptr);
      const double step = ElapsedMs(t0);
      run.RecordStep(rec, step);
      if (d == 0 && rec == nullptr) first_steps.Add(step);

      // Checks, counts and probes, outside the timed step.
      const Counters::Reading delta =
          Counters::Delta(before, dep->counters().Read());
      const snapq::MaintenanceRoundStats& rs = dep->last_round();
      bool ok = true;
      if (const size_t stuck = undefined.Stuck(net)) {
        ok = run.Fail("re-election left a live node UNDEFINED",
                      std::to_string(stuck) + " nodes at t=" +
                          std::to_string(net.now()));
      }
      run.ok.Record(ok);
      if (run.Counted(r)) {
        run.digest.Add(static_cast<uint64_t>(rs.snapshot_size));
        run.digest.Add(static_cast<uint64_t>(rs.num_spurious));
        run.digest.Add(rs.avg_messages_per_node);
      }
      run.Count(r, "snapshot.size", static_cast<double>(rs.snapshot_size));
      run.Count(r, "snapshot.spurious",
                static_cast<double>(rs.num_spurious));
      run.Count(r, "snapshot.maint_msgs_per_node",
                rs.avg_messages_per_node);
      run.RecordCounts(r, delta);
      if (rec != nullptr) {
        if (auto fits = traced.Fits()) {
          run.Count(r, "model.fits", static_cast<double>(*fits));
        }
        run.loop_ns += loop_ms * 1e6;
        run.loop_deliveries +=
            static_cast<double>(delta.delivered + delta.snooped);
        round_ms.Add(loop_ms);
      }

      const size_t misses_before = run.healing_misses;
      RunQueryPairs(run, net, w.queries(d * kMaxRounds + r), gateways, r,
                    unit, rec);
      const size_t healing = run.healing_misses - misses_before;
      run.Count(r, "snapshot.healing_misses", static_cast<double>(healing));
      if (run.Counted(r)) run.digest.Add(static_cast<uint64_t>(healing));

      char line[200];
      std::snprintf(line, sizeof(line),
                    "deployment=%d t=%lld reps=%zu spurious=%zu "
                    "maint_msgs/node=%.4f sent=%llu killed=%lld "
                    "healing_misses=%zu",
                    d, static_cast<long long>(net.now()), rs.snapshot_size,
                    rs.num_spurious, rs.avg_messages_per_node,
                    static_cast<unsigned long long>(delta.sent),
                    victim ? static_cast<long long>(*victim) : -1LL, healing);
      run.LogUnit(r, line);
    }

    if (d == 0 && run.options.trace && w.spec.observers) {
      const snapq::SampleSet twin = RunTwinRounds(
          w.spec, seed, std::min(kTwinRounds, std::max<size_t>(1, r)));
      const double observed = first_steps.Percentile(50);
      const double bare = twin.Percentile(50);
      if (bare > 0.0 && observed > 0.0) {
        run.obs_overhead_pct = 100.0 * (observed / bare - 1.0);
        run.obs_round_share_pct = 100.0 * (1.0 - bare / observed);
      }
    }
  }
  run.units = unit;
}

// -- Metrics -------------------------------------------------------------------

class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples, std::string note = "") {
    metrics_.push_back({name, value, unit, samples, std::move(note)});
  }
  std::vector<Metric> Take() { return std::move(metrics_); }

 private:
  std::vector<Metric> metrics_;
};

std::vector<Metric> EndToEndMetrics(const Run& run) {
  MetricList m;
  m.Add("setup_s", run.setup_s.Percentile(50), "s", run.setup_s.count(),
        "median of the set-ups in this run; host-normalised");
  const auto beyond_p90 = [](const snapq::SampleSet& s) {
    return SamplesBeyond(s.count(), 90) < 10
               ? "host-normalised; fewer than 10 samples beyond p90"
               : "host-normalised";
  };
  m.Add("step_p50_ms", run.step_ms.Percentile(50), "ms", run.step_ms.count(),
        "host-normalised");
  m.Add("step_p90_ms", run.step_ms.Percentile(90), "ms", run.step_ms.count(),
        beyond_p90(run.step_ms));
  m.Add("query_p50_us", run.query_us.Percentile(50), "us",
        run.query_us.count(), "host-normalised");
  m.Add("query_p90_us", run.query_us.Percentile(90), "us",
        run.query_us.count(), beyond_p90(run.query_us));
  const std::optional<int64_t> hwm = ReadStatusKb("VmHWM");
  m.Add("peak_rss_mb", hwm ? static_cast<double>(*hwm) / 1024.0 : 0.0, "MB", 1,
        hwm ? "VmHWM of this process" : "VmHWM unavailable");
  m.Add("ok_pct", run.ok.ok_pct(), "%", run.ok.attempted());
  return m.Take();
}

std::vector<Metric> PerLayerMetrics(const Run& run, bool field,
                                    bool observers) {
  const std::map<std::string, SpanSummary> spans =
      SummarizeSpans(run.recorder.spans());
  auto span_median = [&spans](const char* name, double scale) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0
                             : it->second.durations_ms.Percentile(50) * scale;
  };
  auto span_count = [&spans](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? size_t{0} : it->second.durations_ms.count();
  };
  static const snapq::SampleSet kEmpty;
  auto times = [&run](const char* name) -> const snapq::SampleSet& {
    const auto it = run.times.find(name);
    return it == run.times.end() ? kEmpty : it->second;
  };
  auto counts = [&run](const char* name) -> const snapq::SampleSet& {
    const auto it = run.counts.find(name);
    return it == run.counts.end() ? kEmpty : it->second;
  };
  MetricList m;
  auto add_time = [&](const char* name, const char* unit, const char* note) {
    const snapq::SampleSet& v = times(name);
    m.Add(name, v.Percentile(50), unit, v.count(), v.count() == 0 ? note : "");
  };
  auto add_count = [&](const char* name, const char* unit, const char* note,
                       const char* what = "mean per unit") {
    const snapq::SampleSet& v = counts(name);
    m.Add(name, v.Mean(), unit, v.count(), v.count() == 0 ? note : what);
  };
  const char* kNoObservers = "absent: observers are off in this workload";

  add_time("api.network_ctor_ms", "ms", "");
  add_time("net.build_ms", "ms", "");
  add_time("net.set_position_us", "us", "absent: no node moves in this workload");
  add_count("net.edges", "count", "", "mean per network built");

  for (const char* name : {"sim.sent", "sim.delivered", "sim.snooped",
                           "sim.lost"}) {
    add_count(name, "count", "");
  }
  m.Add("sim.ns_per_delivery",
        run.loop_deliveries > 0 ? run.loop_ns / run.loop_deliveries : 0.0, "ns",
        static_cast<size_t>(run.loop_deliveries),
        "event-loop span / (delivered + snooped), traced units");

  if (field) {
    add_time("snapshot.train_ms", "ms", "");
    add_time("snapshot.election_ms", "ms", "");
  } else {
    m.Add("snapshot.train_ms", span_median("snapshot.train", 1.0), "ms",
          span_count("snapshot.train"));
    m.Add("snapshot.election_ms", span_median("snapshot.election", 1.0), "ms",
          span_count("snapshot.election"));
  }
  add_time("snapshot.maint_round_ms", "ms",
           "absent: no maintenance rounds in this workload");
  add_count("snapshot.election_msgs_per_node", "msg/node", "",
            "mean per election");
  add_count("snapshot.maint_msgs_per_node", "msg/node",
            "absent: no maintenance rounds in this workload");
  add_count("snapshot.size", "count", "");
  add_count("snapshot.spurious", "count", "");
  add_count("snapshot.healing_misses", "count",
            "absent: no node deaths in this workload");

  add_count("model.observes", "count", "");
  add_count("model.admit_ratio", "ratio", "");
  add_count("model.refits", "count", "");
  add_count("model.fits", "count", "");
  m.Add("model.ns_per_observe",
        run.train_observes > 0 ? run.train_ns / run.train_observes : 0.0, "ns",
        static_cast<size_t>(run.train_observes), "training span / observes");
  double trial_share = 0.0;
  if (!field && run.traced_step_ms.count() > 0) {
    const double steps = run.traced_step_ms.Mean() *
                         static_cast<double>(run.traced_step_ms.count());
    const auto it = spans.find("snapshot.train");
    if (it != spans.end() && steps > 0) {
      trial_share = 100.0 * it->second.total_ms / steps;
    }
  }
  m.Add("model.trial_share_pct", trial_share, "%", run.traced_step_ms.count(),
        field ? "absent: no trials in this workload"
              : "training span share of a traced trial");

  m.Add("query.parse_us", span_median("query.parse", 1e3), "us",
        span_count("query.parse"));
  m.Add("query.exec_us", span_median("query.exec", 1e3), "us",
        span_count("query.exec"));
  add_time("query.route_us", "us", "");
  add_count("query.participants", "count", "");
  add_count("query.responders", "count", "");
  m.Add("query.savings_pct",
        run.regular_participants > 0
            ? 100.0 * (1.0 - run.snapshot_participants /
                                 run.regular_participants)
            : 0.0,
        "%", counts("query.participants").count() / 2,
        "participants saved by USE SNAPSHOT over the paired regular query");
  const double query_us = span_median("api.query", 1e3);
  const double route_us = times("query.route_us").Percentile(50);
  m.Add("query.route_share_pct",
        query_us > 0 ? 100.0 * route_us / query_us : 0.0,
        "%", span_count("api.query"), "route_us / traced query median");

  add_time("obs.sample_ms", "ms", kNoObservers);
  m.Add("obs.overhead_pct", run.obs_overhead_pct, "%", run.step_ms.count(),
        observers ? "round median with observers vs an observer-free twin"
                  : kNoObservers);
  m.Add("obs.round_share_pct", run.obs_round_share_pct, "%",
        run.step_ms.count(),
        observers ? "1 - twin round median / observed round median"
                  : kNoObservers);
  for (const char* name :
       {"obs.journal_events", "obs.spans", "obs.dropped_spans"}) {
    add_count(name, "count", "",
              observers ? "mean per unit" : kNoObservers);
  }

  m.Add("mem.rss_setup_mb", run.rss_setup_mb, "MB", 1, "VmRSS after set-up");
  m.Add("mem.kb_per_node", run.kb_per_node, "kB", 1,
        "VmRSS growth over one set-up / nodes");

  const double untraced = run.wall_step_ms.Percentile(50);
  const double traced = run.traced_step_ms.Percentile(50);
  m.Add("trace.overhead_pct",
        untraced > 0 ? 100.0 * (traced / untraced - 1.0) : 0.0,
        "%", run.traced_step_ms.count(), "traced vs untraced unit median");
  return m.Take();
}

/// Self time per layer (span-name prefix) as a share of traced unit time.
std::vector<std::string> LayerTable(const Run& run) {
  const std::vector<Span>& spans = run.recorder.spans();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, double> layer_ms;
  double unit_ms = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    if (spans[i].unit < 0) continue;  // set-up spans
    if (name == "unit") {
      unit_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    }
    const std::string layer = name.substr(0, name.find('.'));
    layer_ms[layer == "unit" ? "bench" : layer] +=
        static_cast<double>(self[i]) / 1e6;
  }
  std::vector<std::string> lines;
  lines.push_back("self time by layer over traced units (span name prefix):");
  for (const auto& [layer, ms] : layer_ms) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-10s %12.3f ms  %6.2f%%",
                  layer.c_str(), ms,
                  unit_ms > 0 ? 100.0 * ms / unit_ms : 0.0);
    lines.push_back(line);
  }
  return lines;
}

}  // namespace

// -- Public entry points -------------------------------------------------------

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names{"dense_elect", "scale_maintain",
                                              "monitored_serve"};
  return names;
}

bool IsWorkload(std::string_view name) {
  for (const std::string& n : WorkloadNames()) {
    if (n == name) return true;
  }
  return false;
}

std::vector<uint64_t> DenseTrialSeeds(uint64_t seed) {
  snapq::Rng rng(DeriveSeed(seed, "perfbench.dense_elect"));
  std::vector<uint64_t> seeds(kDenseSeedCycle);
  for (uint64_t& s : seeds) s = rng.NextUint64() >> 1;
  return seeds;
}

std::vector<std::string> QueryMix(uint64_t seed, size_t round) {
  snapq::Rng rng(
      DeriveSeed(seed, "perfbench.queries." + std::to_string(round)));
  return QueryPairs(rng, 4, 0.06, 0.8, /*everywhere=*/0.1,
                    /*aggregates=*/true);
}

RunResult RunWorkload(const RunOptions& options) {
  Run run(options);
  RunResult result;
  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             (options.trace ? "-traced" : "") + ".units.tsv";
    run.unit_log = std::fopen(path.c_str(), "w");
  }
  if (options.workload == "dense_elect") {
    RunDenseElect(run);
  } else if (options.workload == "scale_maintain") {
    FieldWorkload w;
    w.spec = {10000, 0.0, false};
    w.mobile = true;
    w.setups = 1;
    const uint64_t seed = options.seed;
    w.queries = [seed](size_t r) {
      snapq::Rng rng(DeriveSeed(seed, "perfbench.scale." + std::to_string(r)));
      return QueryPairs(rng, 1, 0.1, 0.35, 0.0, false);
    };
    RunField(run, w);
  } else if (options.workload == "monitored_serve") {
    FieldWorkload w;
    w.spec = {1000, 0.05, true};
    w.setups = 2;
    const uint64_t seed = options.seed;
    w.queries = [seed](size_t r) { return QueryMix(seed, r); };
    RunField(run, w);
  }
  if (run.unit_log != nullptr) std::fclose(run.unit_log);
  result.ok = run.ok;
  result.units = run.units;
  result.digest = run.digest.Hex();
  for (const auto& [kind, entry] : run.failures) {
    result.failures.push_back(kind + " (x" + std::to_string(entry.first) +
                              (entry.second.empty() ? "" : "; first: " +
                                                              entry.second) +
                              ")");
  }
  const bool field = options.workload != "dense_elect";
  result.metrics =
      options.trace
          ? PerLayerMetrics(run, field, options.workload == "monitored_serve")
          : EndToEndMetrics(run);
  if (!options.trace) {
    char line[240];
    std::snprintf(line, sizeof(line),
                  "host probe: median %.1f us over %zu readings (reference "
                  "%.1f us); wall clock: setup_s %.4f, step p50/p90 %.3f/"
                  "%.3f ms, query p50/p90 %.1f/%.1f us",
                  run.speed.readings().Percentile(50) / 1e3,
                  run.speed.readings().count(), HostSpeed::kReferenceNs / 1e3,
                  run.wall_setup_s.Percentile(50),
                  run.wall_step_ms.Percentile(50),
                  run.wall_step_ms.Percentile(90),
                  run.wall_query_us.Percentile(50),
                  run.wall_query_us.Percentile(90));
    result.notes.push_back(line);
  }
  if (options.trace) {
    result.notes = LayerTable(run);
    if (!options.out_dir.empty()) {
      const std::string path = options.out_dir + "/" + options.workload +
                               "-seed" + std::to_string(options.seed) +
                               ".spans.jsonl";
      if (run.recorder.WriteJsonl(path)) {
        result.notes.push_back("spans: " + path);
      }
    }
  }
  return result;
}

}  // namespace perfbench
