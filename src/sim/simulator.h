// The network simulator: binds the link model, energy accounting, the event
// queue and per-node message handlers. Protocol agents (election,
// maintenance, queries) are built on top of this interface.
//
// Faithfulness notes:
//  * every transmission is physically a broadcast; `Message::to` narrows the
//    intended recipient, and other nodes in range may snoop unicasts with a
//    configurable probability (§3: nodes build models by snooping);
//  * loss is sampled independently per (message, receiver);
//  * dead nodes (empty battery or forced kill) neither send nor receive;
//  * sending charges the sender one tx cost; a send that exhausts the
//    battery still goes out (the node dies transmitting).
#ifndef SNAPQ_SIM_SIMULATOR_H_
#define SNAPQ_SIM_SIMULATOR_H_

#include <array>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "net/energy.h"
#include "net/link_model.h"
#include "net/message.h"
#include "net/node_id.h"
#include "net/trace_context.h"
#include "obs/energy_ledger.h"
#include "obs/journal.h"
#include "obs/metric_registry.h"
#include "obs/topo.h"
#include "obs/tracer.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/representation_index.h"

namespace snapq {

/// Simulator-wide knobs.
struct SimConfig {
  /// Initial per-delivery loss probability (the paper's P_loss). The live
  /// value is links().loss_probability().
  double loss_probability = 0.0;
  /// Probability that a node in range overhears a unicast not addressed to
  /// it (§6.3 uses 5%).
  double snoop_probability = 0.0;
  /// Energy model; use EnergyModel::Unlimited() to ignore energy.
  EnergyModel energy = EnergyModel::Unlimited();
  /// Root seed for all randomness drawn by the simulator (loss, snooping).
  uint64_t seed = 1;
};

/// Discrete-event sensor network simulator.
class Simulator {
 public:
  /// Handler invoked on message delivery. `snooped` is true when the node
  /// overheard a unicast addressed to someone else.
  using MessageHandler = std::function<void(const Message&, bool snooped)>;

  Simulator(std::vector<Point> positions, std::vector<double> ranges,
            const SimConfig& config);

  size_t num_nodes() const { return links_.num_nodes(); }
  Time now() const { return queue_.now(); }

  /// Installs the delivery callback for `id`. A node without a handler
  /// silently drops deliveries (useful in unit tests).
  void SetHandler(NodeId id, MessageHandler handler);

  /// Schedules an action at absolute time t >= now().
  void ScheduleAt(Time t, std::function<void()> action);
  /// Schedules an action `delta` >= 0 time units from now.
  void ScheduleAfter(Time delta, std::function<void()> action);

  /// Transmits `msg` (msg.from must be a live node). Loss and snooping are
  /// sampled now; one event at now() (radio latency is negligible at the
  /// paper's time-unit granularity) then delivers the surviving copies in
  /// link row order, so whatever a handler schedules at now() runs after
  /// the last copy. Returns false if the sender was dead and nothing was
  /// transmitted.
  bool Send(const Message& msg);

  /// Charges `id` one cache-maintenance CPU operation.
  void ChargeCacheOp(NodeId id);

  /// Drains `amount` energy units from `id` directly (used by layers that
  /// account traffic in aggregate, e.g. the query executor's tree traffic).
  void Drain(NodeId id, double amount);

  /// Drains `amount` from `id`, attributed in the energy ledger as a
  /// transmission of `as_type` (aggregate accounting that stands in for
  /// real traffic — the query executor's per-reply tree hops).
  void DrainAs(NodeId id, double amount, MessageType as_type);

  bool alive(NodeId id) const { return batteries_[id].alive(); }
  const Battery& battery(NodeId id) const { return batteries_[id]; }
  /// Every node that died since construction, in order of death. A
  /// battery never refills, so the nodes alive now are those alive at
  /// construction minus this list, and its length identifies the alive
  /// set (the query layer keys cached routing trees on it).
  std::span<const NodeId> deaths() const { return deaths_; }
  /// Forced node failure (failure injection in tests/experiments). The
  /// discarded charge is attributed to the ledger's "killed" cause so the
  /// conservation invariant survives failure injection.
  void Kill(NodeId id);

  /// Moves node `id` (mobility): subsequent transmissions use the new
  /// position's reachability.
  void MoveNode(NodeId id, const Point& position) {
    links_.SetPosition(id, position);
  }

  /// Failure injection: additionally drops every delivery of `type` with
  /// probability `p` (independent of the link loss). Lets tests sever one
  /// protocol path — e.g. lose every Accept — and check the recovery rules.
  void SetTypeLoss(MessageType type, double p) {
    type_loss_[static_cast<size_t>(type)] = p;
  }

  /// Failure injection: changes the uniform link loss probability mid-run
  /// (e.g. a soak driver simulating a loss burst or a partition).
  void SetLossProbability(double p) { links_.SetLossProbability(p); }

  const LinkModel& links() const { return links_; }
  LinkModel& mutable_links() { return links_; }
  const SimConfig& config() const { return config_; }

  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  /// The simulation's metric registry: protocol layers register their own
  /// named instruments here (the Metrics façade above is backed by it).
  obs::MetricRegistry& registry() { return registry_; }
  const obs::MetricRegistry& registry() const { return registry_; }

  /// Who represents whom, since which epoch: the one store of the
  /// relation. Snapshot agents write it; the query layer reads it.
  RepresentationIndex& representation() { return representation_; }
  const RepresentationIndex& representation() const {
    return representation_;
  }

  /// The structured event journal. Disabled (null sink) by default;
  /// attach a sink to record protocol events as JSONL.
  obs::EventJournal& journal() { return journal_; }
  const obs::EventJournal& journal() const { return journal_; }

  /// Number of messages node `id` has transmitted (Fig 15 reports the
  /// per-node average during maintenance).
  uint64_t messages_sent_by(NodeId id) const { return sent_by_[id]; }
  /// Resets the per-node sent counters (metrics object is left untouched).
  void ResetPerNodeCounters();

  Rng& rng() { return rng_; }

  /// Attaches a causal tracer (nullptr detaches). Not owned. With a tracer
  /// attached, Send mints a message span per transmission (child of the
  /// sender's context), stamps it on every delivered copy, and records
  /// deliver/snoop/loss outcomes; handlers and ScheduleAt callbacks run
  /// under the causal context that scheduled them.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() { return tracer_; }

  /// Attaches an energy ledger (nullptr detaches). Not owned. With a
  /// ledger attached every battery drain reports its applied charge —
  /// typed by message, direction and (when tracing) causal root kind.
  /// Every drain goes through Charge, so the ledger is one branch there.
  void SetEnergyLedger(obs::EnergyLedger* ledger) { energy_ledger_ = ledger; }
  obs::EnergyLedger* energy_ledger() { return energy_ledger_; }

  /// Attaches a per-link observer (nullptr detaches). Not owned. With one
  /// attached, every addressed delivery/loss and every snoop records the
  /// directed link's outcome (a fixed-table probe, never allocating).
  /// Every outcome goes through RecordOutcome, so the observer is one
  /// branch there.
  void SetLinkObserver(obs::LinkObserver* observer) {
    link_observer_ = observer;
  }

  /// The causal context of the event currently executing (unsampled when
  /// tracing is off or the current event has no traced cause).
  const TraceContext& current_trace() const { return current_trace_; }

  /// Mints a trace root at now() with the current context recorded as a
  /// causal link. Returns the new root context — or, when the root was not
  /// sampled (tracing off / sampling draw failed / budget gone), the
  /// *current* context unchanged, so callers can scope it unconditionally
  /// without severing an enclosing trace.
  TraceContext MintTraceRoot(obs::TraceRootKind kind, NodeId node,
                             int64_t value = 0);

  /// RAII: installs `ctx` as the simulator's current causal context for
  /// the scope's lifetime (plain POD swap — safe to use unconditionally).
  class TraceScope {
   public:
    TraceScope(Simulator& sim, const TraceContext& ctx)
        : sim_(sim), saved_(sim.current_trace_) {
      sim.current_trace_ = ctx;
    }
    ~TraceScope() { sim_.current_trace_ = saved_; }
    TraceScope(const TraceScope&) = delete;
    TraceScope& operator=(const TraceScope&) = delete;

   private:
    Simulator& sim_;
    TraceContext saved_;
  };

  // Event loop control.
  bool RunNext() { return queue_.RunNext(); }
  void RunUntil(Time t) { queue_.RunUntil(t); }
  void RunAll() { queue_.RunAll(); }
  bool idle() const { return queue_.empty(); }

 private:
  /// A pooled in-flight transmission: one message copy, stamped with the
  /// transmission's span, and the receivers that survived loss in
  /// LinkModel::Reachable row order, each with its snoop flag. One event
  /// delivers them all. Pooling reuses the Message's vector payloads
  /// (ids/epochs/values) and the receiver list's capacity across
  /// transmissions, so a steady-state Send schedules its one event with
  /// zero heap allocations (the closure pushed into the event queue is
  /// just {this, event*} and stays inline).
  struct DeliveryEvent {
    struct Copy {
      NodeId receiver;
      bool snooped;
    };
    Message msg;
    std::vector<Copy> copies;  // empty while the record is in the pool
  };

  void Deliver(NodeId to, const Message& msg, bool snooped);
  /// The one battery drain: consumes `amount` from `id`, records the
  /// applied charge in the ledger's `cell` under `ctx`'s trace root, and
  /// books a death under `cause` when this drain emptied the battery.
  void Charge(NodeId id, double amount, size_t cell, const TraceContext& ctx,
              const char* cause);
  /// The one receiver outcome (deliver, snoop or addressed loss) of a
  /// transmission from `from` to `to`: Metrics, the profiler's HotOp, the
  /// link observer and the tracer (when `span` is sampled).
  void RecordOutcome(NodeId from, NodeId to, MessageType type,
                     RadioEventKind kind, const TraceContext& span);
  /// Ledger attribution slot of `ctx`'s trace root (-1 when untraced).
  int RootSlotOf(const TraceContext& ctx) const;
  /// Death bookkeeping shared by Charge and Kill: net.node_deaths,
  /// ledger death tick, and the frozen-schema node_death journal event.
  void OnNodeDeath(NodeId id, const char* cause);
  /// Pops a pooled transmission record (allocating only when the pool is
  /// dry).
  DeliveryEvent* AcquireDelivery();
  /// Delivers every copy of one pooled transmission, in order, and returns
  /// the record to the pool.
  void RunDelivery(DeliveryEvent* event);

  LinkModel links_;
  SimConfig config_;
  EventQueue queue_;
  obs::MetricRegistry registry_;  // must precede metrics_ (façade over it)
  obs::EventJournal journal_;
  Metrics metrics_;
  Rng rng_;
  std::vector<Battery> batteries_;
  std::vector<MessageHandler> handlers_;
  std::vector<uint64_t> sent_by_;
  std::vector<NodeId> deaths_;
  RepresentationIndex representation_;
  /// Owns every transmission record ever created (one per transmission in
  /// flight at the busiest moment); free_deliveries_ holds the currently
  /// idle ones. Records are stable on the heap (unique_ptr) so scheduled
  /// closures can carry raw pointers across heap sifts and pool growth.
  std::vector<std::unique_ptr<DeliveryEvent>> delivery_pool_;
  std::vector<DeliveryEvent*> free_deliveries_;
  std::array<double, kNumMessageTypes> type_loss_{};
  obs::Tracer* tracer_ = nullptr;
  obs::EnergyLedger* energy_ledger_ = nullptr;
  obs::LinkObserver* link_observer_ = nullptr;
  TraceContext current_trace_{};
};

}  // namespace snapq

#endif  // SNAPQ_SIM_SIMULATOR_H_
