// Causal trace context carried by every protocol message. Modeled after
// W3C trace-context: a trace groups all work caused by one root event (an
// election trigger, a heartbeat round, a query injection, a detected model
// violation); spans form a tree under that root via parent_span_id.
//
// This header is dependency-free so both the wire layer (Message embeds a
// TraceContext) and the observability layer (the Tracer records spans) can
// share it without a cycle.
#ifndef SNAPQ_NET_TRACE_CONTEXT_H_
#define SNAPQ_NET_TRACE_CONTEXT_H_

#include <cstdint>

namespace snapq {

/// The radio-event taxonomy of the causal tracer's per-message delivery
/// records (the trace analyzer and the Perfetto export read it back).
enum class RadioEventKind { kSend, kDeliver, kSnoop, kLoss };

/// Stable lowercase name ("send", "deliver", "snoop", "loss").
const char* RadioEventKindName(RadioEventKind kind);

/// Ids threaded through the protocol. All ids are minted by the Tracer;
/// id 0 means "absent": trace_id 0 = the message/event is not part of a
/// sampled trace, parent_span_id 0 = the span is a trace root.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;

  bool sampled() const { return trace_id != 0; }
};

}  // namespace snapq

#endif  // SNAPQ_NET_TRACE_CONTEXT_H_
