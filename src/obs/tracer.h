// Causal trace store. The Tracer mints trace/span ids at protocol root
// causes, records a bounded in-memory tree of spans per simulation, and is
// consumed by the TraceAnalyzer (invariant verdicts) and the Perfetto
// exporter. Attach one to a Simulator with Simulator::SetTracer; the
// simulator then stamps every delivered message copy with its span so
// contexts propagate causally through handlers, scheduled callbacks, and
// re-broadcasts.
//
// Cost model: with sampling = 0 (or no tracer attached) the simulator's
// message hot path does no tracer work at all — a single branch, no heap
// allocations. With sampling on, memory is bounded by `max_spans`; once
// the budget is exhausted new spans are dropped (counted) while contexts
// keep propagating unchanged, so recorded spans never orphan.
#ifndef SNAPQ_OBS_TRACER_H_
#define SNAPQ_OBS_TRACER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "net/message.h"
#include "net/node_id.h"
#include "net/trace_context.h"

namespace snapq::obs {

/// The protocol events that mint new traces.
enum class TraceRootKind {
  kElection,        ///< a global election round (RunGlobalElection)
  kReelection,      ///< a local re-election with no traced cause
  kHeartbeatRound,  ///< one maintenance heartbeat round
  kQuery,           ///< a query injection (analytic or in-network)
  kViolation,       ///< a detected model violation (threshold breach)
};

const char* TraceRootKindName(TraceRootKind kind);

/// What a span represents.
enum class TraceSpanKind {
  kRoot,     ///< trace root (one per trace)
  kMessage,  ///< one radio transmission and its deliveries
  kPhase,    ///< a protocol phase's simulated interval (RecordPhase)
  kInstant,  ///< a zero-length annotation (e.g. "query.respond")
};

const char* TraceSpanKindName(TraceSpanKind kind);

/// One receiver-side outcome of a message span. The 8-byte time leads so
/// the record packs into 16 bytes with no padding.
struct TraceDelivery {
  Time t = 0;
  NodeId node = kInvalidNode;
  RadioEventKind outcome = RadioEventKind::kDeliver;  // deliver/snoop/loss
};
static_assert(sizeof(TraceDelivery) == 16);

/// One recorded span. `value` is a producer-defined scalar attribute:
/// query roots carry use_snapshot (1/0); "query.respond" instants carry 1
/// when the responder was PASSIVE at respond time (an invariant breach).
/// `link_*` records a causal edge across traces (a violation root links
/// back to the heartbeat-round span that detected it).
struct TraceSpan {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  TraceSpanKind kind = TraceSpanKind::kRoot;
  TraceRootKind root_kind = TraceRootKind::kElection;  // kRoot only
  MessageType msg_type = MessageType::kData;           // kMessage only
  std::string name;
  NodeId node = kInvalidNode;
  Time start = 0;
  Time end = 0;
  int64_t value = 0;
  uint64_t link_trace_id = 0;
  uint64_t link_span_id = 0;
  std::vector<TraceDelivery> deliveries;  // kMessage only

  TraceContext context() const {
    return TraceContext{trace_id, span_id, parent_span_id};
  }
};

struct TracerConfig {
  /// Probability that a root cause mints a new trace. 1 traces everything,
  /// 0 disables the tracer entirely (enabled() == false). Values >= 1
  /// skip the sampling draw, keeping the id stream deterministic.
  double sampling = 1.0;
  /// Span budget (bounded memory). Once exhausted, further spans are
  /// dropped and counted in dropped_spans().
  size_t max_spans = 65536;
  /// Seed for the sampling draws (independent of the simulator's rng).
  uint64_t seed = 1;
};

class Tracer {
 public:
  explicit Tracer(const TracerConfig& config = {});

  bool enabled() const { return config_.sampling > 0.0; }
  const TracerConfig& config() const { return config_; }

  /// Mints a root span at time `t` (subject to sampling). Returns the root
  /// context, or an unsampled context when the draw failed, the tracer is
  /// disabled, or the span budget is gone. `link` (optional) records the
  /// already-traced cause that triggered this root.
  TraceContext StartTrace(TraceRootKind kind, NodeId node, Time t,
                          int64_t value = 0, const TraceContext& link = {});

  /// Mints a message span under `parent` (which must be sampled). Returns
  /// the context to stamp on the wire copies; falls back to `parent`
  /// itself when the span budget is exhausted, so the subtree keeps its
  /// causal attachment.
  TraceContext BeginMessageSpan(const TraceContext& parent, MessageType type,
                                NodeId from, Time t);

  /// Records a receiver-side outcome of message span `ctx` (no-op when
  /// `ctx` is unsampled or its span was dropped).
  void RecordDelivery(const TraceContext& ctx, NodeId node, Time t,
                      RadioEventKind outcome);

  /// Records a zero-length annotation span under `parent`.
  void RecordInstant(const TraceContext& parent, std::string name, NodeId node,
                     Time t, int64_t value = 0);

  /// Records a phase span [begin, end] in simulated time under `parent`.
  /// The election, a maintenance round and a query execution call this
  /// where they end; a no-op when `parent` is unsampled.
  void RecordPhase(const TraceContext& parent, std::string name, Time begin,
                   Time end);

  /// Recorded spans in recording order. A deque grows block by block, so
  /// the store never holds a doubling's slack or a copy-on-grow peak, and
  /// stored spans never move.
  const std::deque<TraceSpan>& spans() const { return spans_; }
  const TraceSpan* FindSpan(uint64_t span_id) const;

  /// Trace ids in minting order.
  std::vector<uint64_t> TraceIds() const;
  /// Spans of one trace, in recording order (empty for unknown ids).
  std::vector<const TraceSpan*> SpansOfTrace(uint64_t trace_id) const;

  /// The TraceRootKind of `trace_id`'s root as an int index, or -1 when
  /// the trace is unknown (unsampled, cleared, or foreign). One hash
  /// lookup, no allocation — the energy ledger uses this to attribute
  /// drains to their causal root kind on the simulator's charge sites.
  int RootKindIndex(uint64_t trace_id) const;

  /// Traces minted so far (sampled roots only).
  uint64_t num_traces() const { return num_traces_; }
  /// Spans rejected by the max_spans budget.
  uint64_t dropped_spans() const { return dropped_; }

  /// Drops all recorded spans; id streams keep advancing so ids stay
  /// unique across a simulation's lifetime.
  void Clear();

 private:
  /// Appends if the budget allows; returns the stored span or nullptr.
  TraceSpan* Append(TraceSpan span);
  /// Extends the root span of `trace_id` to cover time `t`.
  void ExtendRoot(uint64_t trace_id, Time t);

  TracerConfig config_;
  Rng rng_;
  std::deque<TraceSpan> spans_;
  std::unordered_map<uint64_t, size_t> span_index_;   // span_id -> index
  std::unordered_map<uint64_t, size_t> root_index_;   // trace_id -> index
  uint64_t next_trace_id_ = 1;
  uint64_t next_span_id_ = 1;
  uint64_t num_traces_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace snapq::obs

#endif  // SNAPQ_OBS_TRACER_H_
