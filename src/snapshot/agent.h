// SnapshotAgent: the per-node protocol state machine. It binds the model
// store (§4) to the simulator's radio and implements:
//
//   * model building by snooping value broadcasts (kData), invitations and
//     heartbeats (§3);
//   * the representative-discovery protocol of Table 2 — invitation,
//     model-evaluation/candidate lists, initial selection — and the five
//     refinement rules of Figure 5, including the Rule-4 randomized
//     fallback (§5);
//   * snapshot maintenance (§5.1): heartbeats with estimate checking, local
//     re-election with load-aware candidate scoring, energy-based
//     resignation, and epoch-based spurious-representative cleanup.
#ifndef SNAPQ_SNAPSHOT_AGENT_H_
#define SNAPQ_SNAPSHOT_AGENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "model/model_store.h"
#include "net/message.h"
#include "net/node_id.h"
#include "sim/simulator.h"
#include "snapshot/config.h"
#include "snapshot/node_state.h"

namespace snapq {

/// One protocol agent per sensor node. The owning harness must call
/// Install() once to hook the agent into the simulator, and keep the
/// agent's measurement fresh via SetMeasurement().
class SnapshotAgent {
 public:
  SnapshotAgent(NodeId id, Simulator* sim, const SnapshotConfig& config,
                uint64_t seed);

  SnapshotAgent(const SnapshotAgent&) = delete;
  SnapshotAgent& operator=(const SnapshotAgent&) = delete;
  SnapshotAgent(SnapshotAgent&&) = delete;

  /// Registers this agent's message handler with the simulator.
  void Install();

  // -- Data plane -----------------------------------------------------------

  /// Updates the node's current sensor reading (timestamped sim->now()).
  void SetMeasurement(double value);
  double measurement() const { return models_.own_value(); }

  /// Broadcasts the current measurement as a kData message (query response
  /// or periodic announcement); neighbors snoop it to build models.
  void BroadcastValue();

  // -- Election -------------------------------------------------------------

  /// Joins a network-wide discovery starting at absolute time t0 >= now():
  /// invitation at t0, initial selection at t0+2, refinement from t0+3.
  void BeginElection(Time t0);

  /// Starts a local re-election right now (maintenance §5.1): broadcast an
  /// invitation, collect offers scored by |Cand_nodes| + current load,
  /// select, refine.
  void BeginLocalReelection();

  // -- Maintenance ----------------------------------------------------------

  /// One maintenance round (§5.1): passive nodes heartbeat their
  /// representative; lone-active nodes broadcast invitations; low-battery
  /// representatives resign.
  void MaintenanceTick();

  // -- State accessors ------------------------------------------------------

  NodeId id() const { return id_; }
  NodeMode mode() const { return mode_; }
  /// The protocol configuration this agent runs (threshold T, error
  /// metric, cache policy) — EXPLAIN reads it to judge model errors.
  const SnapshotConfig& config() const { return config_; }
  /// This node's current representative (its own id when unrepresented).
  NodeId representative() const { return rep_; }
  /// Nodes this node believes it represents, as (member, epoch) pairs in
  /// ascending member order: its chain of the simulator's representation
  /// index, valid until the relation next changes.
  RepresentationIndex::Members represents() const {
    return sim_->representation().MembersOf(id_);
  }
  /// The epoch this node recorded for member `j`; nullopt when it does not
  /// represent j.
  std::optional<int64_t> RepresentsSince(NodeId j) const {
    return sim_->representation().EpochOf(j, id_);
  }
  int64_t epoch() const { return epoch_; }
  bool resigned() const { return resigned_; }
  /// Rounds left on the post-rotation candidacy cooldown.
  int rotation_cooldown_remaining() const { return cooldown_rounds_; }
  /// ACTIVE and representing nobody but itself.
  bool IsLoneActive() const {
    return mode_ == NodeMode::kActive && represents().empty();
  }

  ModelStore& models() { return models_; }
  const ModelStore& models() const { return models_; }

  /// The model-based estimate of neighbor j's current measurement.
  std::optional<double> EstimateFor(NodeId j) const {
    return models_.Estimate(j);
  }

  /// Hook for the query layer: kQueryRequest/kQueryReply deliveries are
  /// forwarded here (the agent itself only handles protocol traffic).
  using QueryHandler = std::function<void(const Message&)>;
  void SetQueryHandler(QueryHandler handler) {
    query_handler_ = std::move(handler);
  }

 private:
  // Message dispatch.
  void HandleMessage(const Message& msg, bool snooped);
  void OnInvitation(const Message& msg);
  void OnCandList(const Message& msg);
  void OnAccept(const Message& msg);
  void OnRecall(const Message& msg);
  void OnStayActive(const Message& msg);
  void OnRepAck(const Message& msg);
  void OnHeartbeat(const Message& msg, bool snooped);
  void OnHeartbeatReply(const Message& msg);
  void OnResign(const Message& msg);

  /// The one write path to the representation relation: records member
  /// `j` at `epoch` in the simulator's index (replacing its entry), or
  /// drops it when `epoch` is empty.
  void SetRepresents(NodeId j, std::optional<int64_t> epoch);
  /// Drops every member through SetRepresents.
  void ReleaseMembers();

  /// Feeds a heard neighbor value into the model cache (and charges the
  /// cache-maintenance CPU cost).
  void ObserveNeighbor(NodeId j, double value);

  /// Whether this node offers candidacy in response to an invitation:
  /// electing nodes (network discovery) and ACTIVE non-resigned nodes
  /// (maintenance); PASSIVE bystanders stay silent.
  bool OffersCandidacy() const;

  // Election internals.
  void StartElectionRound(Time t0);
  void SendInvitation();
  void ScheduleCandBroadcast();
  void BroadcastCandList();
  void RunSelection();
  void ScheduleRefinement(Time t);
  void RefinementTick();
  void ScheduleRepAck();
  void BroadcastRepAck();
  void BecomeActive();
  void BecomePassive();
  void SendRecall(NodeId old_rep);
  void CheckHeartbeatReply(int64_t sent_epoch);
  void BroadcastHeartbeatReplies();

  const NodeId id_;
  Simulator* const sim_;
  const SnapshotConfig config_;
  Rng rng_;
  ModelStore models_;

  // Representation state: references to this node's row of the
  // simulator's representation index, its only copy.
  NodeMode& mode_;
  NodeId& rep_;            // my representative; == id_ when self-represented
  int64_t& epoch_;         // bumped every time this node seeks representation

  // Election transients (valid while electing_).
  struct Offer {
    double score = 0.0;     // |Cand_nodes| + already-representing
    size_t list_len = 0;    // |Cand_nodes| alone (Rule-0 comparisons)
  };
  bool electing_ = false;
  Time refine_deadline_ = 0;   // Rule-4 randomization starts here
  Time hard_deadline_ = 0;     // deterministic ACTIVE fallback
  std::map<NodeId, Offer> offers_;
  std::map<NodeId, size_t> heard_cand_len_;
  size_t my_cand_len_ = 0;
  /// Inviting nodes this node can represent (id -> inviter's epoch).
  std::map<NodeId, int64_t> pending_cands_;
  bool cand_broadcast_scheduled_ = false;
  bool ack_scheduled_ = false;
  /// Members (id -> epoch) covered by the most recent RepAck broadcast. A
  /// StayActive arriving in the same time unit as a broadcast that already
  /// covered its sender needs no further ack (the sender will hear that
  /// broadcast); a *later* StayActive from an acked member means the
  /// broadcast was lost, so we ack again.
  std::map<NodeId, int64_t> acked_;
  Time last_ack_broadcast_ = -1;
  bool recall_sent_ = false;
  /// Rule-3 bookkeeping: when StayActive was last sent (< 0 = never this
  /// election). Re-sent every config.stay_active_resend units until the
  /// acknowledgment arrives.
  Time stay_active_last_ = -1;
  /// True once this election's representative acknowledged us (directly or
  /// via an overheard RepAck broadcast listing this node).
  bool rep_ack_seen_ = false;
  bool refinement_scheduled_ = false;
  /// Representative to release once a new selection lands (maintenance).
  NodeId prior_rep_ = kInvalidNode;

  // Maintenance transients.
  bool awaiting_reply_ = false;
  double heartbeat_value_ = 0.0;
  int heartbeat_misses_ = 0;
  bool resigned_ = false;
  /// LEACH-style rotation bookkeeping: consecutive maintenance rounds
  /// served as a representative, and rounds left on the post-rotation
  /// cooldown (no candidacy while > 0).
  int rounds_served_ = 0;
  int cooldown_rounds_ = 0;
  /// Heartbeats received this tick (member -> pre-update estimate); one
  /// broadcast answers them all.
  std::map<NodeId, double> pending_replies_;
  bool reply_scheduled_ = false;
  QueryHandler query_handler_;
};

}  // namespace snapq

#endif  // SNAPQ_SNAPSHOT_AGENT_H_
