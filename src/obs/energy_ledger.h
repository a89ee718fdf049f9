// The energy ledger: per-node, per-cause attribution of every joule a
// simulation drains. The paper's headline claim is energy (§6.2, Fig 10,
// Table 3) — snapshot queries trade a small election/maintenance budget
// for large query-time savings — yet the simulator charged batteries at
// three anonymous sites. The ledger closes that gap: every drain is
// recorded against
//
//   * the message type that caused it (election / maintenance / data /
//     query, via msg.type) and the direction (tx / rx / snoop);
//   * cache-maintenance CPU charges;
//   * direct drains (the query executor's aggregate tree traffic);
//   * forced-kill discards (failure injection empties the battery without
//     a transmission — the discarded charge is attributed so conservation
//     still holds);
//   * the causal trace-root kind (election / re-election / heartbeat /
//     query / violation) when tracing is on, network-wide.
//
// Conservation invariant: per node, the attributed cells sum to
// `initial_battery − remaining()`. The ledger additionally mirrors the
// battery's remaining charge using the exact subtraction sequence the
// Battery applies, so `remaining(i)` equals `battery(i).remaining()`
// bitwise under any cost model (property-tested; see
// energy_conservation_test).
//
// Registry instruments (registered at construction, handles cached):
//
//   energy.drained             total joules drained network-wide (gauge)
//   energy.burn_rate           joules per tick since the last UpdateGauges
//   energy.cause.<cause>       per-cause totals (election, maintenance,
//                              data, query, cache, direct, killed)
//   energy.remaining_total     sum of per-node remaining charge   (finite
//   energy.remaining_min       lowest per-node remaining charge    battery
//   energy.first_death_tick    projected tick of the first node    only —
//                              death (actual once one happened)    infinite
//   energy.coverage_knee_tick  projected tick the median node      gauges
//                              dies — where coverage collapse      render
//                              accelerates                         as JSON
//                                                                  null)
//
// Because these are ordinary registry instruments, the telemetry recorder,
// the SLO grammar ("energy.burn_rate slope >= 0.5 for 10") and the
// flight-recorder blackbox pick them up with zero new plumbing. Forecasts
// come from two internal fixed-memory TimeSeries (min and median remaining
// charge) via their least-squares Slope().
//
// Cost model (the repo's observability contract): every battery drain
// goes through the simulator's one Charge helper, which pays one branch
// when no ledger is attached; with a ledger attached each drain is a
// handful of double adds into preallocated arrays — ZERO heap allocations
// either way (pinned by energy_ledger_alloc_test). UpdateGauges is
// likewise allocation-free.
//
// Layering: obs depends on net (message taxonomy) and common only — the
// simulator pushes drains in; nothing here calls back into sim.
#ifndef SNAPQ_OBS_ENERGY_LEDGER_H_
#define SNAPQ_OBS_ENERGY_LEDGER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/geometry.h"
#include "net/energy.h"
#include "net/message.h"
#include "net/node_id.h"
#include "obs/gauge_pack.h"
#include "obs/metric_registry.h"
#include "obs/timeseries.h"

namespace snapq::obs {

/// Which side of a radio event drained the charge.
enum class EnergyDirection : uint8_t {
  kTx = 0,    ///< the sender's transmission cost
  kRx = 1,    ///< an addressed receiver's rx cost
  kSnoop = 2  ///< an overhearing neighbor's rx cost
};
inline constexpr size_t kNumEnergyDirections = 3;
const char* EnergyDirectionName(EnergyDirection dir);

/// The per-cause rollup reported by gauges, EXPLAIN ANALYZE and the
/// energy map. Message types fold into the first four; the last three are
/// the non-message charge sites.
enum class EnergyCause : uint8_t {
  kElection = 0,  ///< invitation / cand-list / accept / recall /
                  ///< stay-active / rep-ack
  kMaintenance,   ///< heartbeat / heartbeat-reply / resign
  kData,          ///< measurement broadcasts (training, announcements)
  kQuery,         ///< query request / reply traffic
  kCache,         ///< cache-maintenance CPU charges
  kDirect,        ///< untyped direct drains (Simulator::Drain)
  kKilled,        ///< charge discarded by a forced Kill
};
inline constexpr size_t kNumEnergyCauses = 7;
const char* EnergyCauseName(EnergyCause cause);
/// The cause a message type rolls up into.
EnergyCause EnergyCauseOf(MessageType type);

/// Trace-root attribution slots: one per obs::TraceRootKind, plus a
/// trailing slot for drains with no sampled causal context.
inline constexpr size_t kNumEnergyRootSlots = 6;
inline constexpr size_t kEnergyUntracedSlot = kNumEnergyRootSlots - 1;
/// Stable name per slot ("election", ..., "untraced").
const char* EnergyRootSlotName(size_t slot);

/// Per-node attribution cells: every (direction, message type) pair, then
/// cache, direct and killed. Flat layout so the hot path is one indexed
/// add into a preallocated vector.
inline constexpr size_t kEnergyCellsPerNode =
    kNumEnergyDirections * kNumMessageTypes + 3;

/// Value capture of one run's ledger, for the energy map sidecar. Each
/// parallel trial owns its ledger and takes its own snapshot, so a
/// --jobs N run writes the same energy maps as the serial run.
struct EnergyLedgerSnapshot {
  size_t num_nodes = 0;
  double initial_battery = 0.0;
  std::vector<double> cells;      ///< num_nodes * kEnergyCellsPerNode
  std::vector<double> drained;    ///< per node
  std::vector<double> remaining;  ///< per node
  std::vector<uint64_t> deaths;   ///< per node, 1 once it died
  std::vector<double> root_kind;  ///< kNumEnergyRootSlots totals
  /// The ledger's forecasts at capture time; -1 when there was none.
  double first_death_tick = -1.0;
  double coverage_knee_tick = -1.0;

  /// Joules a node spent on one cause.
  double NodeCauseJoules(NodeId node, EnergyCause cause) const;
  /// Network-wide joules per cause / per direction.
  double CauseJoules(EnergyCause cause) const;
  double DirectionJoules(EnergyDirection dir) const;
  double TotalDrained() const;
  uint64_t TotalDeaths() const;
};

/// Everything the energy map sidecar records beyond the snapshot itself.
struct EnergyMapMeta {
  std::string benchmark;
  std::string git_sha;
  bool quick = false;
  Time t = 0;
  /// Driver-specific scalars ("auc_snapshot", "savings_mean", ...),
  /// emitted in order under the "extras" key.
  std::vector<std::pair<std::string, double>> extras;
};

inline constexpr int kEnergyMapSchemaVersion = 1;

/// Renders the schema-versioned `*.energymap.json` document: metadata,
/// network-wide totals (per cause / direction / trace-root kind),
/// lifetime forecasts, and one entry per node with its position, per-cause
/// breakdown, remaining charge and death count. `positions` must have one
/// entry per node. Golden-tested in energy_ledger_test; consumed by
/// tools/energy_report.py.
std::string EnergyMapToJson(const EnergyLedgerSnapshot& snap,
                            const std::vector<Point>& positions,
                            const EnergyMapMeta& meta);

/// The ledger. One per simulation; attach with Simulator::SetEnergyLedger.
/// Not thread-safe (like the registry): parallel trials each own a ledger.
class EnergyLedger {
 public:
  /// Gauges are registered on `registry` immediately and cached. When
  /// `model.unlimited()`, the remaining/forecast gauges are skipped
  /// entirely — they would be infinite, and infinite gauges serialize as
  /// JSON null, polluting timeline/blackbox sidecars.
  EnergyLedger(const EnergyModel& model, size_t num_nodes,
               MetricRegistry* registry);

  // -- Hot path (a few double adds; never allocates) -------------------------

  /// One drain of `applied` joules into attribution cell `cell` (a
  /// CellIndex, CacheCell or DirectCell; the cell determines the cause).
  /// `root_slot` is the drain's causal trace-root kind as an index into
  /// the root slots (-1 or out-of-range folds into the untraced slot).
  void Record(NodeId node, size_t cell, double applied, int root_slot = -1);
  /// Charge discarded by a forced kill (attributed so conservation holds).
  void RecordKillDiscard(NodeId node, double discarded);
  /// Marks `node` dead at tick `t` (first call wins).
  void RecordDeath(NodeId node, Time t);

  // -- Reads ------------------------------------------------------------------

  size_t num_nodes() const { return num_nodes_; }
  const EnergyModel& model() const { return model_; }
  bool unlimited() const { return model_.unlimited(); }

  /// Total joules attributed to `node` / network-wide.
  double drained(NodeId node) const { return drained_[node]; }
  double total_drained() const { return total_drained_; }
  /// The ledger's mirror of the node's remaining charge (bitwise equal to
  /// the battery's, see the conservation invariant above).
  double remaining(NodeId node) const { return remaining_[node]; }
  /// One attribution cell (direction x type; see CellIndex).
  double cell(NodeId node, size_t cell_index) const {
    return cells_[node * kEnergyCellsPerNode + cell_index];
  }
  double CauseJoules(EnergyCause cause) const {
    return cause_totals_[static_cast<size_t>(cause)];
  }
  double RootKindJoules(size_t slot) const { return root_kind_[slot]; }
  uint64_t deaths() const { return deaths_; }
  /// Tick the node died at, or -1 while alive.
  Time death_tick(NodeId node) const { return death_tick_[node]; }

  /// Flat cell index of a (direction, type) pair / the trailing cells.
  static size_t CellIndex(EnergyDirection dir, MessageType type) {
    return static_cast<size_t>(dir) * kNumMessageTypes +
           static_cast<size_t>(type);
  }
  static size_t CacheCell() { return kEnergyCellsPerNode - 3; }
  static size_t DirectCell() { return kEnergyCellsPerNode - 2; }
  static size_t KilledCell() { return kEnergyCellsPerNode - 1; }
  /// The cause a cell rolls up into.
  static EnergyCause CauseOfCell(size_t cell);

  // -- Sampling / forecasting -------------------------------------------------

  /// Publishes the gauges and advances the forecast series at sim-time
  /// `now`. Called from SensorNetwork::SampleTelemetry (so telemetry, SLO
  /// rules and blackboxes see fresh values) and before snapshots are
  /// exported. Allocation-free.
  void UpdateGauges(Time now);

  /// Projected tick of the first node death: the actual first death tick
  /// once one happened, else now + min_remaining / burn-slope from the
  /// min-remaining series trend; -1 while no forecast exists (unlimited
  /// battery, flat trend, or fewer than two samples).
  double first_death_tick() const { return first_death_tick_; }
  /// Projected tick the median node's charge hits zero — the knee where
  /// coverage collapse accelerates (Fig 10's regular-execution cliff);
  /// -1 while no forecast exists.
  double coverage_knee_tick() const { return coverage_knee_tick_; }

  /// Value capture for the energy map sidecar.
  EnergyLedgerSnapshot TakeSnapshot() const;

  /// Multi-line human-readable summary (shell `\energy`).
  std::string ToTable() const;

 private:
  const EnergyModel model_;
  const size_t num_nodes_;

  // Cached instrument handles. The pack holds the unconditional gauges
  // (drained, burn_rate, one per cause — slot constants in the .cc); the
  // remaining/forecast handles stay null when skipped for unlimited
  // models.
  GaugePack gauges_;
  Gauge* remaining_total_gauge_ = nullptr;
  Gauge* remaining_min_gauge_ = nullptr;
  Gauge* first_death_gauge_ = nullptr;
  Gauge* knee_gauge_ = nullptr;

  // Attribution state (all preallocated at construction).
  std::vector<double> cells_;      // num_nodes_ * kEnergyCellsPerNode
  std::vector<double> drained_;    // per node
  std::vector<double> remaining_;  // per node, battery mirror
  std::vector<Time> death_tick_;   // per node, -1 while alive
  double cause_totals_[kNumEnergyCauses] = {};
  double root_kind_[kNumEnergyRootSlots] = {};
  double total_drained_ = 0.0;
  uint64_t deaths_ = 0;

  // Forecast state.
  TimeSeries min_series_;
  TimeSeries median_series_;
  std::vector<double> median_scratch_;  // preallocated for nth_element
  double first_death_tick_ = -1.0;
  double coverage_knee_tick_ = -1.0;
  Time first_death_time_ = -1;  // actual, dominates the projection
  Time knee_time_ = -1;         // tick the median node was observed dead
  Time last_update_time_ = -1;
  double last_update_drained_ = 0.0;
};

}  // namespace snapq::obs

#endif  // SNAPQ_OBS_ENERGY_LEDGER_H_
