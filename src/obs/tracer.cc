#include "obs/tracer.h"

#include <algorithm>
#include <utility>

namespace snapq::obs {

const char* TraceRootKindName(TraceRootKind kind) {
  switch (kind) {
    case TraceRootKind::kElection:
      return "election";
    case TraceRootKind::kReelection:
      return "reelection";
    case TraceRootKind::kHeartbeatRound:
      return "heartbeat_round";
    case TraceRootKind::kQuery:
      return "query";
    case TraceRootKind::kViolation:
      return "violation";
  }
  return "?";
}

const char* TraceSpanKindName(TraceSpanKind kind) {
  switch (kind) {
    case TraceSpanKind::kRoot:
      return "root";
    case TraceSpanKind::kMessage:
      return "message";
    case TraceSpanKind::kPhase:
      return "phase";
    case TraceSpanKind::kInstant:
      return "instant";
  }
  return "?";
}

Tracer::Tracer(const TracerConfig& config)
    : config_(config), rng_(config.seed) {}

TraceContext Tracer::StartTrace(TraceRootKind kind, NodeId node, Time t,
                                int64_t value, const TraceContext& link) {
  if (!enabled()) return {};
  if (config_.sampling < 1.0 && !rng_.Bernoulli(config_.sampling)) return {};
  TraceSpan root;
  root.trace_id = next_trace_id_++;
  root.span_id = next_span_id_++;
  root.kind = TraceSpanKind::kRoot;
  root.root_kind = kind;
  root.name = TraceRootKindName(kind);
  root.node = node;
  root.start = t;
  root.end = t;
  root.value = value;
  root.link_trace_id = link.trace_id;
  root.link_span_id = link.span_id;
  const uint64_t trace_id = root.trace_id;
  const uint64_t span_id = root.span_id;
  if (Append(std::move(root)) == nullptr) return {};
  ++num_traces_;
  root_index_[trace_id] = span_index_[span_id];
  return TraceContext{trace_id, span_id, 0};
}

TraceContext Tracer::BeginMessageSpan(const TraceContext& parent,
                                      MessageType type, NodeId from, Time t) {
  if (!parent.sampled()) return {};
  TraceSpan span;
  span.trace_id = parent.trace_id;
  span.span_id = next_span_id_++;
  span.parent_span_id = parent.span_id;
  span.kind = TraceSpanKind::kMessage;
  span.msg_type = type;
  span.name = MessageTypeName(type);
  span.node = from;
  span.start = t;
  span.end = t;
  const uint64_t span_id = span.span_id;
  if (Append(std::move(span)) == nullptr) {
    // Budget exhausted: keep propagating the parent so later spans (if any
    // budget frees via Clear) still attach to a recorded ancestor.
    return parent;
  }
  ExtendRoot(parent.trace_id, t);
  return TraceContext{parent.trace_id, span_id, parent.span_id};
}

void Tracer::RecordDelivery(const TraceContext& ctx, NodeId node, Time t,
                            RadioEventKind outcome) {
  if (!ctx.sampled()) return;
  const auto it = span_index_.find(ctx.span_id);
  if (it == span_index_.end()) return;
  TraceSpan& span = spans_[it->second];
  span.deliveries.push_back(TraceDelivery{t, node, outcome});
  span.end = std::max(span.end, t);
  ExtendRoot(ctx.trace_id, t);
}

void Tracer::RecordInstant(const TraceContext& parent, std::string name,
                           NodeId node, Time t, int64_t value) {
  if (!parent.sampled()) return;
  TraceSpan span;
  span.trace_id = parent.trace_id;
  span.span_id = next_span_id_++;
  span.parent_span_id = parent.span_id;
  span.kind = TraceSpanKind::kInstant;
  span.name = std::move(name);
  span.node = node;
  span.start = t;
  span.end = t;
  span.value = value;
  if (Append(std::move(span)) != nullptr) ExtendRoot(parent.trace_id, t);
}

void Tracer::RecordPhase(const TraceContext& parent, std::string name,
                         Time begin, Time end) {
  if (!parent.sampled()) return;
  TraceSpan span;
  span.trace_id = parent.trace_id;
  span.span_id = next_span_id_++;
  span.parent_span_id = parent.span_id;
  span.kind = TraceSpanKind::kPhase;
  span.name = std::move(name);
  span.start = begin;
  span.end = end;
  if (Append(std::move(span)) != nullptr) ExtendRoot(parent.trace_id, end);
}

const TraceSpan* Tracer::FindSpan(uint64_t span_id) const {
  const auto it = span_index_.find(span_id);
  return it == span_index_.end() ? nullptr : &spans_[it->second];
}

int Tracer::RootKindIndex(uint64_t trace_id) const {
  const auto it = root_index_.find(trace_id);
  if (it == root_index_.end()) return -1;
  return static_cast<int>(spans_[it->second].root_kind);
}

std::vector<uint64_t> Tracer::TraceIds() const {
  std::vector<uint64_t> ids;
  ids.reserve(root_index_.size());
  for (const TraceSpan& span : spans_) {
    if (span.kind == TraceSpanKind::kRoot) ids.push_back(span.trace_id);
  }
  return ids;
}

std::vector<const TraceSpan*> Tracer::SpansOfTrace(uint64_t trace_id) const {
  std::vector<const TraceSpan*> out;
  for (const TraceSpan& span : spans_) {
    if (span.trace_id == trace_id) out.push_back(&span);
  }
  return out;
}

void Tracer::Clear() {
  spans_.clear();
  span_index_.clear();
  root_index_.clear();
  dropped_ = 0;
}

TraceSpan* Tracer::Append(TraceSpan span) {
  if (spans_.size() >= config_.max_spans) {
    ++dropped_;
    return nullptr;
  }
  const uint64_t span_id = span.span_id;
  spans_.push_back(std::move(span));
  span_index_[span_id] = spans_.size() - 1;
  return &spans_.back();
}

void Tracer::ExtendRoot(uint64_t trace_id, Time t) {
  const auto it = root_index_.find(trace_id);
  if (it == root_index_.end()) return;
  TraceSpan& root = spans_[it->second];
  root.end = std::max(root.end, t);
}

}  // namespace snapq::obs
