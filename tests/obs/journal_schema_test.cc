// Golden schema test for the event journal: every JSONL event kind the
// library emits has a frozen field list (names, order, types). A failure
// here means a protocol change silently altered the journal contract
// documented in DESIGN.md §8 — update BOTH deliberately or fix the code.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/network.h"
#include "data/random_walk.h"
#include "model/cache_manager.h"
#include "obs/journal.h"
#include "snapshot/election.h"
#include "snapshot/maintenance.h"

namespace snapq {
namespace {

using Schema = std::vector<std::pair<std::string, std::string>>;

/// The frozen per-event schemas. Types are the writer-side kinds; a "num"
/// field may parse back as "int" when its value happens to be integral
/// (JSON has one number type).
const std::map<std::string, Schema>& GoldenSchemas() {
  static const std::map<std::string, Schema> golden = {
      {"election.start", {{"nodes", "int"}}},
      {"election.select", {{"node", "int"}, {"epoch", "int"}, {"rep", "int"}}},
      {"election.mode", {{"node", "int"}, {"epoch", "int"}, {"mode", "str"}}},
      {"election.done",
       {{"active", "int"},
        {"passive", "int"},
        {"undefined", "int"},
        {"spurious", "int"},
        {"avg_messages_per_node", "num"},
        {"max_messages_per_node", "num"}}},
      {"maintenance.reelect", {{"node", "int"}, {"epoch", "int"}}},
      {"maintenance.round",
       {{"round_start", "int"},
        {"snapshot_size", "int"},
        {"spurious", "int"},
        {"avg_messages_per_node", "num"}}},
      {"maintenance.resign",
       {{"node", "int"},
        {"epoch", "int"},
        {"reason", "str"},
        {"members", "int"}}},
      {"model.violation",
       {{"node", "int"},
        {"epoch", "int"},
        {"rep", "int"},
        {"reported", "num"},
        {"estimate", "num"}}},
      {"cache.evict",
       {{"node", "int"}, {"victim", "int"}, {"line_emptied", "bool"}}},
      {"query.plan",
       {{"node", "int"},
        {"use_snapshot", "bool"},
        {"passive_sleep", "bool"},
        {"matching", "int"},
        {"responders", "int"},
        {"participants", "int"},
        {"covered", "int"},
        {"estimated", "int"},
        {"max_abs_error", "num"}}},
      {"query_explain",
       {{"node", "int"},
        {"use_snapshot", "bool"},
        {"matching", "int"},
        {"covered", "int"},
        {"estimated_rows", "int"},
        {"est_participants", "int"},
        {"act_participants", "int"},
        {"est_messages", "int"},
        {"act_messages", "int"},
        {"est_energy", "num"},
        {"act_energy", "num"},
        {"tree_depth", "int"},
        {"threshold", "num"},
        {"max_abs_error", "num"}}},
      {"health.sample",
       {{"live", "int"},
        {"active", "int"},
        {"passive", "int"},
        {"undefined", "int"},
        {"spurious", "int"},
        {"coverage", "num"},
        {"violation_rate", "num"},
        {"reelection_rate", "num"},
        {"staleness", "num"}}},
      {"node_death", {{"node", "int"}, {"cause", "str"}}},
      {"accuracy_audit",
       {{"node", "int"},  // query sink, or -1 for a sweep round
        {"source", "str"},
        {"threshold", "num"},
        {"audited", "int"},
        {"violations", "int"},
        {"max_abs_error", "num"},
        {"mean_abs_error", "num"},
        {"violation_rate", "num"},
        {"budget_burn", "num"}}},
      {"slo.breach",
       {{"rule", "str"},
        {"metric", "str"},
        {"stat", "str"},
        {"observed", "num"},
        {"threshold", "num"},
        {"since", "int"}}},
      {"topo.sample",
       {{"partitions", "int"},
        {"bridges", "int"},
        {"articulation", "int"},
        {"isolated", "int"},
        {"live", "int"},
        {"weak_links", "int"},
        {"avg_degree", "num"},
        {"flap_rate", "num"},
        {"election_rate", "num"},
        {"tenure_p50", "num"}}},
  };
  return golden;
}

void ExpectType(const obs::JournalEvent& event, const std::string& key,
                const std::string& got, const std::string& want) {
  if (want == "num") {
    // Integral numbers lose their kind through JSON round-trips.
    EXPECT_TRUE(got == "num" || got == "int")
        << event.name() << "." << key << " is " << got;
  } else {
    EXPECT_EQ(got, want) << event.name() << "." << key;
  }
}

/// Order-sensitive check against a writer-side (builder) event.
void ExpectSchema(const obs::JournalEvent& event, const Schema& want) {
  const auto got = event.Fields();
  ASSERT_EQ(got.size(), want.size()) << event.name() << ": "
                                     << event.ToJsonLine();
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first) << event.name();
    ExpectType(event, got[i].first, got[i].second, want[i].second);
  }
}

/// Order-insensitive check for a parsed event (JournalEvent::Parse goes
/// through a key-sorted map); emission order is asserted separately against
/// the raw line by ExpectKeyOrder.
void ExpectParsedSchema(const obs::JournalEvent& event, const Schema& want) {
  const auto got = event.Fields();
  ASSERT_EQ(got.size(), want.size()) << event.name() << ": "
                                     << event.ToJsonLine();
  for (const auto& [key, type] : want) {
    const auto it = std::find_if(
        got.begin(), got.end(),
        [&key = key](const auto& g) { return g.first == key; });
    ASSERT_NE(it, got.end()) << event.name() << " missing field " << key;
    ExpectType(event, key, it->second, type);
  }
}

/// Asserts the raw JSONL line emits the schema's keys in declared order.
void ExpectKeyOrder(const std::string& line, const Schema& want) {
  size_t prev = 0;
  for (const auto& [key, type] : want) {
    const size_t pos = line.find("\"" + key + "\":");
    ASSERT_NE(pos, std::string::npos) << key << " not in " << line;
    EXPECT_GT(pos, prev) << key << " out of order in " << line;
    prev = pos;
  }
}

/// Parses every captured line, checks each known event against its golden
/// schema, and returns the set of event names seen.
std::set<std::string> CheckLines(const std::vector<std::string>& lines) {
  std::set<std::string> seen;
  for (const std::string& line : lines) {
    const auto event = obs::JournalEvent::Parse(line);
    EXPECT_TRUE(event.has_value()) << line;
    if (!event.has_value()) continue;
    seen.insert(event->name());
    const auto it = GoldenSchemas().find(event->name());
    if (it == GoldenSchemas().end()) {
      ADD_FAILURE() << "journal emits undocumented event kind: " << line;
      continue;
    }
    ExpectParsedSchema(*event, it->second);
    ExpectKeyOrder(line, it->second);
  }
  return seen;
}

TEST(JournalSchemaTest, BuilderEmitsFieldsInOrderWithDeclaredTypes) {
  obs::JournalEvent event("test.event", 5);
  event.Node(3).Epoch(2).Num("ratio", 0.25).Str("why", "x").Bool("ok", true);
  const Schema want = {{"node", "int"},
                       {"epoch", "int"},
                       {"ratio", "num"},
                       {"why", "str"},
                       {"ok", "bool"}};
  ExpectSchema(event, want);
  EXPECT_EQ(event.ToJsonLine(),
            "{\"event\":\"test.event\",\"t\":5,\"node\":3,\"epoch\":2,"
            "\"ratio\":0.25,\"why\":\"x\",\"ok\":true}");
  const auto parsed = obs::JournalEvent::Parse(event.ToJsonLine());
  ASSERT_TRUE(parsed.has_value());
  ExpectParsedSchema(*parsed, want);
  ExpectKeyOrder(event.ToJsonLine(), want);
}

TEST(JournalSchemaTest, NetworkLifecycleEventsMatchGoldenSchemas) {
  NetworkConfig config;
  config.num_nodes = 20;
  config.snapshot.threshold = 1.0;
  config.seed = 42;
  SensorNetwork net(config);
  auto* sink = static_cast<obs::MemoryJournalSink*>(
      net.sim().journal().SetSink(std::make_unique<obs::MemoryJournalSink>()));

  Rng rng(7);
  RandomWalkConfig walk;
  walk.num_nodes = 20;
  walk.num_classes = 4;
  walk.horizon = 31;
  Result<Dataset> data = Dataset::Create(GenerateRandomWalk(walk, rng).series);
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(net.AttachDataset(std::move(*data)).ok());
  net.ScheduleTrainingBroadcasts(0, 10);
  net.RunUntil(30);
  net.RunElection(30);
  net.EnableAccuracyAudit();  // audits the query + explain rounds below
  ASSERT_TRUE(
      net.Query("SELECT avg(value) FROM sensors WHERE loc IN NORTH_HALF "
                "USE SNAPSHOT")
          .ok());
  ASSERT_TRUE(net.Explain("EXPLAIN ANALYZE SELECT avg(value) FROM sensors "
                          "WHERE loc IN NORTH_HALF USE SNAPSHOT")
                  .ok());
  // A callback is required for round measurement (and its journal event).
  net.ScheduleMaintenance(net.now() + 1, net.now() + 2, /*interval=*/10,
                          [](const MaintenanceRoundStats&) {});
  net.RunAll();
  net.SampleHealth();

  const std::set<std::string> seen = CheckLines(sink->lines());
  for (const char* required :
       {"election.start", "election.select", "election.mode", "election.done",
        "query.plan", "query_explain", "maintenance.round", "health.sample",
        "accuracy_audit"}) {
    EXPECT_TRUE(seen.count(required)) << "scenario never emitted " << required;
  }
}

TEST(JournalSchemaTest, ViolationAndReelectionEventsMatchGoldenSchemas) {
  // Three nodes in a line; teach pairwise models, elect, then drift the
  // passive nodes' values so the next heartbeat round detects a model
  // violation and re-elects (same recipe as MaintenanceTest).
  SnapshotConfig cfg;
  cfg.threshold = 1.0;
  cfg.max_wait = 4;
  cfg.heartbeat_timeout = 2;
  cfg.heartbeat_miss_limit = 1;
  Simulator sim({{0.0, 0.0}, {0.05, 0.0}, {0.1, 0.0}}, {10.0, 10.0, 10.0},
                SimConfig{});
  auto* sink = static_cast<obs::MemoryJournalSink*>(
      sim.journal().SetSink(std::make_unique<obs::MemoryJournalSink>()));
  std::vector<std::unique_ptr<SnapshotAgent>> agents;
  for (NodeId i = 0; i < 3; ++i) {
    agents.push_back(std::make_unique<SnapshotAgent>(i, &sim, cfg, 700 + i));
    agents.back()->Install();
  }
  for (NodeId i = 0; i < 3; ++i) agents[i]->SetMeasurement(10.0 + i);
  for (NodeId i = 0; i < 3; ++i) {
    for (NodeId j = 0; j < 3; ++j) {
      if (i == j) continue;
      const double vi = agents[i]->measurement();
      const double vj = agents[j]->measurement();
      agents[i]->models().cache().Observe(j, vi - 1, vj - 1, 0);
      agents[i]->models().cache().Observe(j, vi + 1, vj + 1, 0);
    }
  }
  RunGlobalElection(sim, agents, sim.now(), cfg);
  const SnapshotView view = CaptureSnapshot(sim);
  for (NodeId i = 0; i < 3; ++i) {
    if (view.node(i).mode == NodeMode::kPassive) {
      agents[i]->SetMeasurement(10000.0 + i);
    }
  }
  for (auto& a : agents) a->MaintenanceTick();
  sim.RunAll();

  const std::set<std::string> seen = CheckLines(sink->lines());
  EXPECT_TRUE(seen.count("model.violation"));
  EXPECT_TRUE(seen.count("maintenance.reelect"));
}

TEST(JournalSchemaTest, NodeDeathEventMatchesGoldenSchema) {
  SimConfig config;
  config.energy.initial_battery = 1.5;  // dies on the second transmission
  Simulator sim({{0.0, 0.0}, {1.0, 0.0}}, {2.0, 2.0}, config);
  auto* sink = static_cast<obs::MemoryJournalSink*>(
      sim.journal().SetSink(std::make_unique<obs::MemoryJournalSink>()));
  Message msg;
  msg.type = MessageType::kData;
  msg.from = 0;
  sim.Send(msg);
  sim.Send(msg);
  sim.RunAll();
  const std::set<std::string> seen = CheckLines(sink->lines());
  EXPECT_TRUE(seen.count("node_death"));
}

/// Every event name at an `Emit("...")` / `Emit(\n    "...")` site in a
/// src/ translation unit. A tiny lexical scan, not a parse: find "Emit(",
/// skip whitespace, and take a string literal when one follows (the
/// declaration `void Emit(const char*...)` has no literal and is skipped).
std::set<std::string> ScanEmittedEventNames() {
  namespace fs = std::filesystem;
  std::set<std::string> emitted;
  const fs::path src = fs::path(SNAPQ_SOURCE_DIR) / "src";
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".cc" && ext != ".h") continue;
    std::ifstream in(entry.path());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    size_t pos = 0;
    while ((pos = text.find("Emit(", pos)) != std::string::npos) {
      pos += 5;
      const size_t quote = text.find_first_not_of(" \t\r\n", pos);
      if (quote == std::string::npos || text[quote] != '"') continue;
      const size_t end = text.find('"', quote + 1);
      if (end == std::string::npos) continue;
      emitted.insert(text.substr(quote + 1, end - quote - 1));
      pos = end + 1;
    }
  }
  return emitted;
}

TEST(JournalSchemaTest, EverySourceEmitSiteHasAGoldenSchema) {
  const std::set<std::string> emitted = ScanEmittedEventNames();
  // The scan must find the library's real emit sites — an empty or tiny
  // result means the source tree moved, not that the contract holds.
  ASSERT_GE(emitted.size(), 10u);
  for (const std::string& name : emitted) {
    EXPECT_TRUE(GoldenSchemas().count(name) != 0)
        << "src/ emits journal event '" << name
        << "' with no golden schema — freeze its field list here (and "
           "document it in DESIGN.md)";
  }
}

TEST(JournalSchemaTest, CacheEvictionEventMatchesGoldenSchema) {
  CacheConfig config;
  config.capacity_bytes = 64;  // tiny: evictions after a few neighbors
  config.policy = CachePolicy::kRoundRobin;
  obs::EventJournal journal;
  auto* sink = static_cast<obs::MemoryJournalSink*>(
      journal.SetSink(std::make_unique<obs::MemoryJournalSink>()));
  CacheManager cache(config);
  cache.BindObservability(nullptr, &journal, /*self=*/7);
  Time t = 0;
  for (NodeId j = 0; j < 32; ++j) {
    for (int k = 0; k < 3; ++k) {
      const double x = static_cast<double>(j) + k;
      cache.Observe(j, x, 2.0 * x, ++t);
    }
  }
  const std::set<std::string> seen = CheckLines(sink->lines());
  EXPECT_TRUE(seen.count("cache.evict"));
}

}  // namespace
}  // namespace snapq
