#include "obs/energy_ledger.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "obs/json.h"

namespace snapq::obs {

const char* EnergyDirectionName(EnergyDirection dir) {
  switch (dir) {
    case EnergyDirection::kTx:
      return "tx";
    case EnergyDirection::kRx:
      return "rx";
    case EnergyDirection::kSnoop:
      return "snoop";
  }
  return "?";
}

const char* EnergyCauseName(EnergyCause cause) {
  switch (cause) {
    case EnergyCause::kElection:
      return "election";
    case EnergyCause::kMaintenance:
      return "maintenance";
    case EnergyCause::kData:
      return "data";
    case EnergyCause::kQuery:
      return "query";
    case EnergyCause::kCache:
      return "cache";
    case EnergyCause::kDirect:
      return "direct";
    case EnergyCause::kKilled:
      return "killed";
  }
  return "?";
}

EnergyCause EnergyCauseOf(MessageType type) {
  switch (type) {
    case MessageType::kInvitation:
    case MessageType::kCandList:
    case MessageType::kAccept:
    case MessageType::kRecall:
    case MessageType::kStayActive:
    case MessageType::kRepAck:
      return EnergyCause::kElection;
    case MessageType::kHeartbeat:
    case MessageType::kHeartbeatReply:
    case MessageType::kResign:
      return EnergyCause::kMaintenance;
    case MessageType::kData:
      return EnergyCause::kData;
    case MessageType::kQueryRequest:
    case MessageType::kQueryReply:
      return EnergyCause::kQuery;
    case MessageType::kMessageTypeCount:
      break;
  }
  return EnergyCause::kData;
}

const char* EnergyRootSlotName(size_t slot) {
  // Slots 0..4 mirror obs::TraceRootKind; the trailing slot catches drains
  // with no sampled causal context.
  switch (slot) {
    case 0:
      return "election";
    case 1:
      return "reelection";
    case 2:
      return "heartbeat_round";
    case 3:
      return "query";
    case 4:
      return "violation";
    case kEnergyUntracedSlot:
      return "untraced";
    default:
      return "?";
  }
}

// ---------------------------------------------------------------------------
// EnergyLedgerSnapshot

double EnergyLedgerSnapshot::NodeCauseJoules(NodeId node,
                                             EnergyCause cause) const {
  const double* base = cells.data() + node * kEnergyCellsPerNode;
  double total = 0.0;
  for (size_t c = 0; c < kEnergyCellsPerNode; ++c) {
    if (EnergyLedger::CauseOfCell(c) == cause) total += base[c];
  }
  return total;
}

double EnergyLedgerSnapshot::CauseJoules(EnergyCause cause) const {
  double total = 0.0;
  for (NodeId i = 0; i < num_nodes; ++i) total += NodeCauseJoules(i, cause);
  return total;
}

double EnergyLedgerSnapshot::DirectionJoules(EnergyDirection dir) const {
  double total = 0.0;
  for (NodeId i = 0; i < num_nodes; ++i) {
    const double* base = cells.data() + i * kEnergyCellsPerNode;
    for (size_t m = 0; m < kNumMessageTypes; ++m) {
      total += base[static_cast<size_t>(dir) * kNumMessageTypes + m];
    }
  }
  return total;
}

double EnergyLedgerSnapshot::TotalDrained() const {
  double total = 0.0;
  for (double d : drained) total += d;
  return total;
}

uint64_t EnergyLedgerSnapshot::TotalDeaths() const {
  uint64_t total = 0;
  for (uint64_t d : deaths) total += d;
  return total;
}

// ---------------------------------------------------------------------------
// EnergyMapToJson

namespace {

void AppendCauseObject(std::ostringstream& out,
                       const EnergyLedgerSnapshot& snap, NodeId node) {
  out << "{";
  for (size_t c = 0; c < kNumEnergyCauses; ++c) {
    if (c != 0) out << ", ";
    const auto cause = static_cast<EnergyCause>(c);
    const double joules = node == kInvalidNode
                              ? snap.CauseJoules(cause)
                              : snap.NodeCauseJoules(node, cause);
    out << "\"" << EnergyCauseName(cause) << "\": " << JsonNumber(joules);
  }
  out << "}";
}

}  // namespace

std::string EnergyMapToJson(const EnergyLedgerSnapshot& snap,
                            const std::vector<Point>& positions,
                            const EnergyMapMeta& meta) {
  SNAPQ_CHECK_EQ(positions.size(), snap.num_nodes);
  // One run per document: "runs" stays in the frozen schema as 1, and
  // "deaths" counts the nodes that died. An unlimited battery reports
  // initial_battery/remaining as -1 (never infinity, which would
  // serialize as JSON null).
  const bool unlimited = !std::isfinite(snap.initial_battery);
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema_version\": " << kEnergyMapSchemaVersion << ",\n";
  out << "  \"kind\": \"snapq-energymap\",\n";
  out << "  \"benchmark\": \"" << JsonEscape(meta.benchmark) << "\",\n";
  out << "  \"git_sha\": \"" << JsonEscape(meta.git_sha) << "\",\n";
  out << "  \"quick\": " << (meta.quick ? "true" : "false") << ",\n";
  out << "  \"t\": " << meta.t << ",\n";
  out << "  \"runs\": 1,\n";
  out << "  \"num_nodes\": " << snap.num_nodes << ",\n";
  out << "  \"unlimited\": " << (unlimited ? "true" : "false") << ",\n";
  out << "  \"initial_battery\": "
      << JsonNumber(unlimited ? -1.0 : snap.initial_battery) << ",\n";

  out << "  \"totals\": {\n";
  out << "    \"drained\": " << JsonNumber(snap.TotalDrained()) << ",\n";
  double remaining_total = 0.0;
  for (double r : snap.remaining) remaining_total += r;
  out << "    \"remaining\": "
      << JsonNumber(unlimited ? -1.0 : remaining_total) << ",\n";
  out << "    \"deaths\": " << snap.TotalDeaths() << ",\n";
  out << "    \"by_cause\": ";
  AppendCauseObject(out, snap, kInvalidNode);
  out << ",\n";
  out << "    \"by_direction\": {";
  for (size_t d = 0; d < kNumEnergyDirections; ++d) {
    if (d != 0) out << ", ";
    const auto dir = static_cast<EnergyDirection>(d);
    out << "\"" << EnergyDirectionName(dir) << "\": "
        << JsonNumber(snap.DirectionJoules(dir));
  }
  out << "},\n";
  out << "    \"by_root_kind\": {";
  for (size_t s = 0; s < snap.root_kind.size(); ++s) {
    if (s != 0) out << ", ";
    out << "\"" << EnergyRootSlotName(s) << "\": "
        << JsonNumber(snap.root_kind[s]);
  }
  out << "}\n  },\n";

  out << "  \"forecast\": {\"first_death_tick\": "
      << JsonNumber(snap.first_death_tick) << ", \"coverage_knee_tick\": "
      << JsonNumber(snap.coverage_knee_tick) << "},\n";

  out << "  \"extras\": {";
  for (size_t i = 0; i < meta.extras.size(); ++i) {
    if (i != 0) out << ", ";
    out << "\"" << JsonEscape(meta.extras[i].first)
        << "\": " << JsonNumber(meta.extras[i].second);
  }
  out << "},\n";

  out << "  \"nodes\": [\n";
  for (NodeId i = 0; i < snap.num_nodes; ++i) {
    out << "    {\"id\": " << i << ", \"x\": " << JsonNumber(positions[i].x)
        << ", \"y\": " << JsonNumber(positions[i].y) << ", \"remaining\": "
        << JsonNumber(unlimited ? -1.0 : snap.remaining[i])
        << ", \"drained\": " << JsonNumber(snap.drained[i])
        << ", \"deaths\": " << snap.deaths[i] << ", \"by_cause\": ";
    AppendCauseObject(out, snap, i);
    out << "}" << (i + 1 < snap.num_nodes ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

// ---------------------------------------------------------------------------
// EnergyLedger

namespace {

// GaugePack slots: the unconditional gauges published by UpdateGauges.
constexpr size_t kDrainedSlot = 0;
constexpr size_t kBurnRateSlot = 1;
constexpr size_t kFirstCauseSlot = 2;  // + static_cast<size_t>(cause)

std::vector<std::string> LedgerGaugeNames() {
  std::vector<std::string> names = {"energy.drained", "energy.burn_rate"};
  for (size_t c = 0; c < kNumEnergyCauses; ++c) {
    names.push_back(std::string("energy.cause.") +
                    EnergyCauseName(static_cast<EnergyCause>(c)));
  }
  return names;
}

}  // namespace

EnergyLedger::EnergyLedger(const EnergyModel& model, size_t num_nodes,
                           MetricRegistry* registry)
    : model_(model),
      num_nodes_(num_nodes),
      gauges_(registry, LedgerGaugeNames()),
      cells_(num_nodes * kEnergyCellsPerNode, 0.0),
      drained_(num_nodes, 0.0),
      remaining_(num_nodes, model.initial_battery),
      death_tick_(num_nodes, -1),
      median_scratch_(num_nodes, 0.0) {
  // An unlimited model would publish infinite remaining-charge gauges,
  // which serialize as JSON null and pollute timeline/blackbox sidecars —
  // skip them entirely (ISSUE 8 satellite 2).
  if (!model_.unlimited()) {
    remaining_total_gauge_ = registry->GetGauge("energy.remaining_total");
    remaining_min_gauge_ = registry->GetGauge("energy.remaining_min");
    first_death_gauge_ = registry->GetGauge("energy.first_death_tick");
    knee_gauge_ = registry->GetGauge("energy.coverage_knee_tick");
    remaining_total_gauge_->Set(model_.initial_battery *
                                static_cast<double>(num_nodes_));
    remaining_min_gauge_->Set(num_nodes_ == 0 ? 0.0
                                              : model_.initial_battery);
    first_death_gauge_->Set(-1.0);
    knee_gauge_->Set(-1.0);
  }
}

EnergyCause EnergyLedger::CauseOfCell(size_t cell) {
  if (cell == CacheCell()) return EnergyCause::kCache;
  if (cell == DirectCell()) return EnergyCause::kDirect;
  if (cell == KilledCell()) return EnergyCause::kKilled;
  return EnergyCauseOf(static_cast<MessageType>(cell % kNumMessageTypes));
}

void EnergyLedger::Record(NodeId node, size_t cell, double applied,
                          int root_slot) {
  cells_[node * kEnergyCellsPerNode + cell] += applied;
  drained_[node] += applied;
  // Mirrors the battery's own subtraction sequence (the simulator passes
  // the *applied* drain from Battery::Consume), so remaining_[node] stays
  // bitwise equal to the battery under any cost model.
  remaining_[node] -= applied;
  cause_totals_[static_cast<size_t>(CauseOfCell(cell))] += applied;
  total_drained_ += applied;
  const size_t slot =
      (root_slot < 0 ||
       root_slot >= static_cast<int>(kNumEnergyRootSlots) - 1)
          ? kEnergyUntracedSlot
          : static_cast<size_t>(root_slot);
  root_kind_[slot] += applied;
}

void EnergyLedger::RecordKillDiscard(NodeId node, double discarded) {
  // An unlimited battery has nothing to discard (and inf - inf is NaN).
  if (!std::isfinite(discarded)) return;
  Record(node, KilledCell(), discarded);
}

void EnergyLedger::RecordDeath(NodeId node, Time t) {
  if (death_tick_[node] >= 0) return;
  death_tick_[node] = t;
  ++deaths_;
  if (first_death_time_ < 0 || t < first_death_time_) first_death_time_ = t;
}

namespace {

/// Tick a linearly-extrapolated series crosses zero; -1 when the trend is
/// flat/positive or the series is too short to trend.
double ProjectZeroCrossing(const TimeSeries& series, Time now, double value) {
  if (series.num_bins() < 2) return -1.0;
  const double slope = series.Slope();
  if (!(slope < 0.0)) return -1.0;
  return static_cast<double>(now) + value / (-slope);
}

}  // namespace

void EnergyLedger::UpdateGauges(Time now) {
  gauges_.Set(kDrainedSlot, total_drained_);
  if (last_update_time_ >= 0 && now > last_update_time_) {
    gauges_.Set(kBurnRateSlot, (total_drained_ - last_update_drained_) /
                                   static_cast<double>(now - last_update_time_));
  } else {
    gauges_.Set(kBurnRateSlot, 0.0);
  }
  last_update_time_ = now;
  last_update_drained_ = total_drained_;
  for (size_t c = 0; c < kNumEnergyCauses; ++c) {
    gauges_.Set(kFirstCauseSlot + c, cause_totals_[c]);
  }
  if (remaining_total_gauge_ == nullptr || num_nodes_ == 0) return;

  double total = 0.0;
  double min = remaining_[0];
  for (size_t i = 0; i < num_nodes_; ++i) {
    const double r = remaining_[i];
    total += r;
    if (r < min) min = r;
    median_scratch_[i] = r;
  }
  const size_t mid = num_nodes_ / 2;
  std::nth_element(median_scratch_.begin(),
                   median_scratch_.begin() + static_cast<std::ptrdiff_t>(mid),
                   median_scratch_.end());
  const double median = median_scratch_[mid];
  remaining_total_gauge_->Set(total);
  remaining_min_gauge_->Set(min);
  min_series_.Push(now, min);
  median_series_.Push(now, median);

  first_death_tick_ = first_death_time_ >= 0
                          ? static_cast<double>(first_death_time_)
                          : ProjectZeroCrossing(min_series_, now, min);
  if (median <= 0.0) {
    if (knee_time_ < 0) knee_time_ = now;
    coverage_knee_tick_ = static_cast<double>(knee_time_);
  } else {
    coverage_knee_tick_ = ProjectZeroCrossing(median_series_, now, median);
  }
  first_death_gauge_->Set(first_death_tick_);
  knee_gauge_->Set(coverage_knee_tick_);
}

EnergyLedgerSnapshot EnergyLedger::TakeSnapshot() const {
  EnergyLedgerSnapshot s;
  s.num_nodes = num_nodes_;
  s.initial_battery = model_.initial_battery;
  s.cells = cells_;
  s.drained = drained_;
  s.remaining = remaining_;
  s.deaths.assign(num_nodes_, 0);
  for (size_t i = 0; i < num_nodes_; ++i) {
    if (death_tick_[i] >= 0) s.deaths[i] = 1;
  }
  s.root_kind.assign(root_kind_, root_kind_ + kNumEnergyRootSlots);
  s.first_death_tick = first_death_tick_;
  s.coverage_knee_tick = coverage_knee_tick_;
  return s;
}

std::string EnergyLedger::ToTable() const {
  std::ostringstream out;
  out << "energy ledger: " << num_nodes_ << " nodes, battery ";
  if (unlimited()) {
    out << "unlimited";
  } else {
    out << TablePrinter::Num(model_.initial_battery);
  }
  out << ", drained " << TablePrinter::Num(total_drained_) << " J\n";

  TablePrinter causes({"cause", "joules", "share"});
  for (size_t c = 0; c < kNumEnergyCauses; ++c) {
    const double joules = cause_totals_[c];
    const double share =
        total_drained_ > 0.0 ? 100.0 * joules / total_drained_ : 0.0;
    causes.AddRow({EnergyCauseName(static_cast<EnergyCause>(c)),
                   TablePrinter::Num(joules),
                   TablePrinter::Num(share, 1) + "%"});
  }
  causes.Print(out);

  double dir_joules[kNumEnergyDirections] = {};
  for (size_t i = 0; i < num_nodes_; ++i) {
    const double* base = cells_.data() + i * kEnergyCellsPerNode;
    for (size_t d = 0; d < kNumEnergyDirections; ++d) {
      for (size_t m = 0; m < kNumMessageTypes; ++m) {
        dir_joules[d] += base[d * kNumMessageTypes + m];
      }
    }
  }
  out << "directions:";
  for (size_t d = 0; d < kNumEnergyDirections; ++d) {
    out << " " << EnergyDirectionName(static_cast<EnergyDirection>(d)) << "="
        << TablePrinter::Num(dir_joules[d]);
  }
  out << "\n";

  bool any_traced = false;
  for (size_t s = 0; s + 1 < kNumEnergyRootSlots; ++s) {
    if (root_kind_[s] > 0.0) any_traced = true;
  }
  if (any_traced) {
    out << "trace roots:";
    for (size_t s = 0; s < kNumEnergyRootSlots; ++s) {
      if (root_kind_[s] <= 0.0) continue;
      out << " " << EnergyRootSlotName(s) << "="
          << TablePrinter::Num(root_kind_[s]);
    }
    out << "\n";
  }

  if (!unlimited() && num_nodes_ > 0) {
    double total = 0.0;
    double min = remaining_[0];
    for (size_t i = 0; i < num_nodes_; ++i) {
      total += remaining_[i];
      if (remaining_[i] < min) min = remaining_[i];
    }
    out << "remaining: min=" << TablePrinter::Num(min)
        << " mean=" << TablePrinter::Num(total / static_cast<double>(num_nodes_))
        << " total=" << TablePrinter::Num(total) << "\n";
    out << "deaths: " << deaths_;
    if (first_death_time_ >= 0) out << " (first at t=" << first_death_time_ << ")";
    out << "\n";
    out << "forecast: first-death ";
    if (first_death_tick_ >= 0) {
      out << "~t=" << TablePrinter::Num(first_death_tick_, 0);
    } else {
      out << "n/a";
    }
    out << ", coverage-knee ";
    if (coverage_knee_tick_ >= 0) {
      out << "~t=" << TablePrinter::Num(coverage_knee_tick_, 0);
    } else {
      out << "n/a";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace snapq::obs
