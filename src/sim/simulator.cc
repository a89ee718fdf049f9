#include "sim/simulator.h"

#include <utility>

#include "common/check.h"
#include "obs/profiler.h"

namespace snapq {

Simulator::Simulator(std::vector<Point> positions, std::vector<double> ranges,
                     const SimConfig& config)
    : links_(std::move(positions), std::move(ranges),
             config.loss_probability),
      config_(config),
      metrics_(&registry_),
      rng_(config.seed),
      representation_(links_.num_nodes()) {
  const size_t n = links_.num_nodes();
  batteries_.assign(n, Battery(config_.energy.initial_battery));
  handlers_.resize(n);
  sent_by_.assign(n, 0);
}

void Simulator::SetHandler(NodeId id, MessageHandler handler) {
  SNAPQ_CHECK_LT(id, handlers_.size());
  handlers_[id] = std::move(handler);
}

void Simulator::ScheduleAt(Time t, std::function<void()> action) {
  // Thread the scheduler's causal context into the deferred action so
  // trace trees span timer hops (heartbeat timeouts, query reply slots).
  // The capture only happens when tracing is live *and* the current event
  // is sampled — otherwise this is the same single move as before.
  if (tracer_ != nullptr && tracer_->enabled() && current_trace_.sampled()) {
    queue_.ScheduleAt(t, [this, ctx = current_trace_,
                          inner = std::move(action)]() {
      TraceScope scope(*this, ctx);
      inner();
    });
    return;
  }
  queue_.ScheduleAt(t, std::move(action));
}

void Simulator::ScheduleAfter(Time delta, std::function<void()> action) {
  SNAPQ_CHECK_GE(delta, 0);
  ScheduleAt(queue_.now() + delta, std::move(action));
}

TraceContext Simulator::MintTraceRoot(obs::TraceRootKind kind, NodeId node,
                                      int64_t value) {
  if (tracer_ == nullptr || !tracer_->enabled()) return current_trace_;
  const TraceContext root =
      tracer_->StartTrace(kind, node, queue_.now(), value, current_trace_);
  return root.sampled() ? root : current_trace_;
}

int Simulator::RootSlotOf(const TraceContext& ctx) const {
  if (tracer_ == nullptr || !tracer_->enabled() || !ctx.sampled()) return -1;
  return tracer_->RootKindIndex(ctx.trace_id);
}

void Simulator::OnNodeDeath(NodeId id, const char* cause) {
  deaths_.push_back(id);
  metrics_.CountNodeDeath();
  if (energy_ledger_ != nullptr) {
    energy_ledger_->RecordDeath(id, queue_.now());
  }
  journal_.Emit("node_death", queue_.now(), [&](obs::JournalEvent& e) {
    e.Int("node", static_cast<int64_t>(id)).Str("cause", cause);
  });
}

bool Simulator::Send(const Message& msg) {
  const NodeId from = msg.from;
  SNAPQ_CHECK_LT(from, num_nodes());
  if (!batteries_[from].alive()) return false;
  // The sender's context: the message's own stamp when the sender
  // forwarded a traced message verbatim, else the ambient context of the
  // executing event.
  const TraceContext& parent =
      msg.trace.sampled() ? msg.trace : current_trace_;
  // A node may die on its final transmission; the message still goes out.
  Charge(from, config_.energy.tx_cost,
         obs::EnergyLedger::CellIndex(obs::EnergyDirection::kTx, msg.type),
         parent, "tx");
  obs::ProfCount(obs::HotOp::kMessagesSent);
  metrics_.CountSent(msg.type);
  ++sent_by_[from];
  // Causal tracing: this transmission becomes a span under the parent.
  TraceContext span_ctx;
  if (tracer_ != nullptr && tracer_->enabled() && parent.sampled()) {
    span_ctx = tracer_->BeginMessageSpan(parent, msg.type, from,
                                         queue_.now());
  }

  // One pooled event carries every surviving copy of this transmission.
  // Loss and snoop are drawn here, per receiver in row order, exactly as
  // if each copy were its own event; liveness is checked per copy at
  // delivery.
  DeliveryEvent* event = AcquireDelivery();
  for (NodeId receiver : links_.Reachable(from)) {
    const bool addressed =
        msg.to == kBroadcastId || msg.to == receiver;
    bool snooped = false;
    if (!addressed) {
      // Unaddressed neighbors overhear with the snoop probability.
      if (config_.snoop_probability <= 0.0 ||
          !rng_.Bernoulli(config_.snoop_probability)) {
        continue;
      }
      snooped = true;
    }
    const double type_loss = type_loss_[static_cast<size_t>(msg.type)];
    if (links_.SampleLoss(from, receiver, rng_) ||
        (type_loss > 0.0 && rng_.Bernoulli(type_loss))) {
      if (addressed) {
        RecordOutcome(from, receiver, msg.type, RadioEventKind::kLoss,
                      span_ctx);
      } else if (span_ctx.sampled()) {
        // Lost snoop copies are invisible to the counters and the link's
        // delivery ratio: they were never owed to the receiver.
        tracer_->RecordDelivery(span_ctx, receiver, queue_.now(),
                                RadioEventKind::kLoss);
      }
      continue;
    }
    event->copies.push_back({receiver, snooped});
  }
  if (event->copies.empty()) {
    free_deliveries_.push_back(event);
    return true;
  }
  // Copy the message once; the sender may mutate or destroy its copy
  // after Send returns. Copy-assignment into the pooled record reuses the
  // vector payloads' capacity, as push_back above reuses the receiver
  // list's, and the scheduled closure is two pointers, so a steady-state
  // transmission performs no heap allocation. The copy carries the
  // message span so every receiver's handler inherits this
  // transmission's context.
  event->msg = msg;
  event->msg.trace = span_ctx;
  queue_.ScheduleAt(queue_.now(), [this, event] { RunDelivery(event); });
  return true;
}

Simulator::DeliveryEvent* Simulator::AcquireDelivery() {
  if (free_deliveries_.empty()) {
    delivery_pool_.push_back(std::make_unique<DeliveryEvent>());
    return delivery_pool_.back().get();
  }
  DeliveryEvent* event = free_deliveries_.back();
  free_deliveries_.pop_back();
  return event;
}

void Simulator::RunDelivery(DeliveryEvent* event) {
  // The record is out of the pool until the loop ends, so a handler's own
  // Send (which may grow the pool) never touches this message or list.
  for (const DeliveryEvent::Copy& copy : event->copies) {
    Deliver(copy.receiver, event->msg, copy.snooped);
  }
  event->copies.clear();
  free_deliveries_.push_back(event);
}

void Simulator::Deliver(NodeId to, const Message& msg, bool snooped) {
  if (!batteries_[to].alive()) return;
  Charge(to, config_.energy.rx_cost,
         obs::EnergyLedger::CellIndex(snooped ? obs::EnergyDirection::kSnoop
                                              : obs::EnergyDirection::kRx,
                                      msg.type),
         msg.trace, "rx");
  RecordOutcome(msg.from, to, msg.type,
                snooped ? RadioEventKind::kSnoop : RadioEventKind::kDeliver,
                msg.trace);
  if (handlers_[to]) {
    TraceScope scope(*this, msg.trace);
    handlers_[to](msg, snooped);
  }
}

void Simulator::Charge(NodeId id, double amount, size_t cell,
                       const TraceContext& ctx, const char* cause) {
  double applied = 0.0;
  const DrainOutcome drain = batteries_[id].Consume(amount, &applied);
  if (energy_ledger_ != nullptr) {
    energy_ledger_->Record(id, cell, applied, RootSlotOf(ctx));
  }
  if (drain == DrainOutcome::kDiedNow) OnNodeDeath(id, cause);
}

void Simulator::RecordOutcome(NodeId from, NodeId to, MessageType type,
                              RadioEventKind kind, const TraceContext& span) {
  switch (kind) {
    case RadioEventKind::kDeliver:
      obs::ProfCount(obs::HotOp::kMessagesDelivered);
      metrics_.CountDelivered(type);
      break;
    case RadioEventKind::kSnoop:
      obs::ProfCount(obs::HotOp::kMessagesSnooped);
      metrics_.CountSnooped(type);
      break;
    case RadioEventKind::kLoss:
      metrics_.CountLost(type);
      break;
    case RadioEventKind::kSend:  // not a receiver outcome
      break;
  }
  if (link_observer_ != nullptr) {
    link_observer_->Record(from, to, kind, queue_.now());
  }
  if (span.sampled() && tracer_ != nullptr) {
    tracer_->RecordDelivery(span, to, queue_.now(), kind);
  }
}

void Simulator::ChargeCacheOp(NodeId id) {
  SNAPQ_CHECK_LT(id, num_nodes());
  Charge(id, config_.energy.cache_op_cost, obs::EnergyLedger::CacheCell(),
         current_trace_, "cache");
  obs::ProfCount(obs::HotOp::kCacheOps);
  metrics_.CountCacheOp();
}

void Simulator::Drain(NodeId id, double amount) {
  Charge(id, amount, obs::EnergyLedger::DirectCell(), current_trace_,
         "drain");
}

void Simulator::DrainAs(NodeId id, double amount, MessageType as_type) {
  Charge(id, amount,
         obs::EnergyLedger::CellIndex(obs::EnergyDirection::kTx, as_type),
         current_trace_, "drain");
}

void Simulator::Kill(NodeId id) {
  const bool was_alive = batteries_[id].alive();
  const double discarded = batteries_[id].remaining();
  batteries_[id].Kill();
  if (!was_alive) return;
  if (energy_ledger_ != nullptr) {
    energy_ledger_->RecordKillDiscard(id, discarded);
  }
  OnNodeDeath(id, "killed");
}

void Simulator::ResetPerNodeCounters() {
  sent_by_.assign(sent_by_.size(), 0);
}

}  // namespace snapq
