#include "snapshot/agent.h"

#include <utility>

#include "common/check.h"

namespace snapq {

namespace {

RepresentationIndex::Node& RowOf(Simulator* sim, NodeId id) {
  SNAPQ_CHECK(sim != nullptr);
  SNAPQ_CHECK_LT(id, sim->num_nodes());
  return sim->representation().node(id);
}

}  // namespace

SnapshotAgent::SnapshotAgent(NodeId id, Simulator* sim,
                             const SnapshotConfig& config, uint64_t seed)
    : id_(id), sim_(sim), config_(config), rng_(seed),
      models_(id, config.cache), mode_(RowOf(sim, id).mode),
      rep_(RowOf(sim, id).representative), epoch_(RowOf(sim, id).epoch) {
  mode_ = NodeMode::kUndefined;
  rep_ = id;
  epoch_ = 0;
  models_.cache().BindObservability(&sim->registry(), &sim->journal(), id);
}

void SnapshotAgent::Install() {
  sim_->SetHandler(id_, [this](const Message& msg, bool snooped) {
    HandleMessage(msg, snooped);
  });
}

void SnapshotAgent::SetMeasurement(double value) {
  models_.SetOwnValue(value, sim_->now());
}

void SnapshotAgent::BroadcastValue() {
  Message msg;
  msg.type = MessageType::kData;
  msg.from = id_;
  msg.to = kBroadcastId;
  msg.value = measurement();
  msg.epoch = epoch_;
  sim_->Send(msg);
}

// ---------------------------------------------------------------------------
// Model building
// ---------------------------------------------------------------------------

void SnapshotAgent::SetRepresents(NodeId j, std::optional<int64_t> epoch) {
  if (epoch.has_value()) {
    sim_->representation().Set(j, id_, *epoch);
  } else {
    sim_->representation().Remove(j, id_);
  }
}

void SnapshotAgent::ReleaseMembers() {
  while (!represents().empty()) {
    const auto [j, e] = *represents().begin();
    SetRepresents(j, std::nullopt);
  }
}

void SnapshotAgent::ObserveNeighbor(NodeId j, double value) {
  models_.Observe(j, value, sim_->now());
  sim_->ChargeCacheOp(id_);
}

// ---------------------------------------------------------------------------
// Election
// ---------------------------------------------------------------------------

void SnapshotAgent::BeginElection(Time t0) {
  SNAPQ_CHECK_GE(t0, sim_->now());
  sim_->ScheduleAt(t0, [this] {
    if (!sim_->alive(id_)) return;
    // Network-wide discovery: representation state starts from scratch.
    ReleaseMembers();
    prior_rep_ = kInvalidNode;
    resigned_ = false;
    StartElectionRound(sim_->now());
  });
}

void SnapshotAgent::BeginLocalReelection() {
  if (electing_ || !sim_->alive(id_)) return;
  sim_->registry().GetCounter("maintenance.reelections")->Inc();
  sim_->journal().Emit("maintenance.reelect", sim_->now(),
                       [this](obs::JournalEvent& e) {
                         e.Node(id_).Epoch(epoch_);
                       });
  // Keep the causal chain when a traced event (heartbeat round, violation,
  // resignation) triggered us; otherwise this re-election is its own root.
  TraceContext ctx = sim_->current_trace();
  if (!ctx.sampled()) {
    ctx = sim_->MintTraceRoot(obs::TraceRootKind::kReelection, id_);
  }
  Simulator::TraceScope scope(*sim_, ctx);
  prior_rep_ = (rep_ != id_) ? rep_ : kInvalidNode;
  StartElectionRound(sim_->now());
}

void SnapshotAgent::StartElectionRound(Time t0) {
  SNAPQ_CHECK_EQ(t0, sim_->now());
  electing_ = true;
  mode_ = NodeMode::kUndefined;
  ++epoch_;
  rep_ = id_;  // tentative: a node represents itself by default
  offers_.clear();
  heard_cand_len_.clear();
  my_cand_len_ = 0;
  recall_sent_ = false;
  stay_active_last_ = -1;
  rep_ack_seen_ = false;
  awaiting_reply_ = false;
  heartbeat_misses_ = 0;
  acked_.clear();
  last_ack_broadcast_ = -1;

  SendInvitation();
  const int64_t election_epoch = epoch_;
  sim_->ScheduleAfter(2, [this, election_epoch] {
    if (epoch_ == election_epoch) RunSelection();
  });
  refine_deadline_ = t0 + 3 + config_.max_wait;
  hard_deadline_ = refine_deadline_ + config_.rule4_hard_cap;
  ScheduleRefinement(t0 + 3);
}

void SnapshotAgent::SendInvitation() {
  Message msg;
  msg.type = MessageType::kInvitation;
  msg.from = id_;
  msg.to = kBroadcastId;
  msg.value = measurement();
  msg.epoch = epoch_;
  sim_->Send(msg);
}

bool SnapshotAgent::OffersCandidacy() const {
  if (resigned_ || cooldown_rounds_ > 0) return false;
  // During its own election a node is a peer candidate (network discovery);
  // otherwise only established representatives volunteer (keeps the
  // snapshot from growing during maintenance).
  return electing_ || mode_ == NodeMode::kActive;
}

void SnapshotAgent::OnInvitation(const Message& msg) {
  const NodeId j = msg.from;
  if (j == id_) return;
  // Candidacy is evaluated against the existing model. Invitations are
  // control traffic: the paper builds models from snooped *data* messages
  // and heartbeats (§3), so the carried value is not folded into the cache
  // — during re-election storms every node would otherwise pay a cache-op
  // per overheard invitation, dwarfing the radio costs the snapshot saves.
  if (OffersCandidacy() &&
      models_.CanRepresent(j, msg.value, config_.metric, config_.threshold)) {
    pending_cands_[j] = msg.epoch;
    ScheduleCandBroadcast();
  }
}

void SnapshotAgent::ScheduleCandBroadcast() {
  if (cand_broadcast_scheduled_) return;
  cand_broadcast_scheduled_ = true;
  sim_->ScheduleAfter(1, [this] { BroadcastCandList(); });
}

void SnapshotAgent::BroadcastCandList() {
  cand_broadcast_scheduled_ = false;
  if (pending_cands_.empty() || !sim_->alive(id_)) {
    pending_cands_.clear();
    return;
  }
  Message msg;
  msg.type = MessageType::kCandList;
  msg.from = id_;
  msg.to = kBroadcastId;
  msg.epoch = epoch_;
  msg.aux = static_cast<double>(represents().size());
  msg.ids.reserve(pending_cands_.size());
  for (const auto& [j, e] : pending_cands_) msg.ids.push_back(j);
  my_cand_len_ = msg.ids.size();
  pending_cands_.clear();
  sim_->Send(msg);
}

void SnapshotAgent::OnCandList(const Message& msg) {
  heard_cand_len_[msg.from] = msg.ids.size();
  if (!electing_ || mode_ != NodeMode::kUndefined) return;
  for (NodeId candidate_of : msg.ids) {
    if (candidate_of == id_) {
      // §5.1 scoring: list length plus the number of nodes the sender
      // already represents (aux is zero during initial discovery).
      offers_[msg.from] =
          Offer{static_cast<double>(msg.ids.size()) + msg.aux,
                msg.ids.size()};
      break;
    }
  }
}

void SnapshotAgent::RunSelection() {
  if (!electing_ || mode_ != NodeMode::kUndefined || !sim_->alive(id_)) {
    return;
  }
  NodeId best = kInvalidNode;
  double best_score = -1.0;
  for (const auto& [candidate, offer] : offers_) {
    const bool better =
        offer.score > best_score ||
        (offer.score == best_score && candidate > best);
    if (better) {
      best = candidate;
      best_score = offer.score;
    }
  }
  if (best != kInvalidNode) {
    rep_ = best;
    sim_->journal().Emit("election.select", sim_->now(),
                         [&](obs::JournalEvent& e) {
                           e.Node(id_).Epoch(epoch_).Int(
                               "rep", static_cast<int64_t>(best));
                         });
    Message msg;
    msg.type = MessageType::kAccept;
    msg.from = id_;
    msg.to = best;
    msg.epoch = epoch_;
    sim_->Send(msg);
  } else {
    rep_ = id_;
  }
  // Release the representative this node had before re-electing
  // (maintenance); a lost recall here produces a spurious representative.
  if (prior_rep_ != kInvalidNode && prior_rep_ != rep_) {
    SendRecall(prior_rep_);
  }
  prior_rep_ = kInvalidNode;
}

void SnapshotAgent::OnAccept(const Message& msg) {
  if (mode_ == NodeMode::kPassive) return;  // passive nodes never represent
  SetRepresents(msg.from, msg.epoch);
}

void SnapshotAgent::ScheduleRefinement(Time t) {
  if (refinement_scheduled_) return;
  refinement_scheduled_ = true;
  sim_->ScheduleAt(t, [this] { RefinementTick(); });
}

void SnapshotAgent::RefinementTick() {
  refinement_scheduled_ = false;
  if (!electing_ || !sim_->alive(id_)) return;
  const Time now = sim_->now();

  // Rule-0: break mutual-representation ties by Cand-list length, then id.
  if (mode_ == NodeMode::kUndefined && rep_ != id_ &&
      RepresentsSince(rep_).has_value()) {
    const auto it = heard_cand_len_.find(rep_);
    const size_t other_len = it == heard_cand_len_.end() ? 0 : it->second;
    if (my_cand_len_ > other_len ||
        (my_cand_len_ == other_len && id_ > rep_)) {
      BecomeActive();
    }
  }
  // Rule-1: unrepresented nodes stay active.
  if (mode_ == NodeMode::kUndefined && rep_ == id_) {
    BecomeActive();
  }
  // Rule-2: an ACTIVE node recalls any representative it still has.
  // (Normally handled inside BecomeActive; this covers nodes activated
  // through other paths.)
  if (mode_ == NodeMode::kActive && rep_ != id_ && !recall_sent_) {
    SendRecall(rep_);
    rep_ = id_;
  }
  // Rule-3: represented leaf nodes ask their representative to stay ACTIVE
  // and await the acknowledgment before turning PASSIVE. An acknowledgment
  // broadcast overheard *before* this node qualified for Rule-3 (e.g. while
  // it still represented someone) already proves the representative knows
  // about it and is ACTIVE — no notify round trip needed. Otherwise a lost
  // message or acknowledgment is retried ("reconsider in the next
  // iteration", §5).
  if (mode_ == NodeMode::kUndefined && rep_ != id_ && represents().empty()) {
    if (rep_ack_seen_) {
      BecomePassive();
    } else if (stay_active_last_ < 0 ||
               now >= stay_active_last_ + config_.stay_active_resend) {
      stay_active_last_ = now;
      Message msg;
      msg.type = MessageType::kStayActive;
      msg.from = id_;
      msg.to = rep_;
      msg.epoch = epoch_;
      sim_->Send(msg);
    }
  }
  // Rule-4: clean up. After MAX_WAIT an undecided node goes ACTIVE with
  // probability 1 - P_wait per round (and deterministically at the hard
  // cap, guaranteeing termination).
  if (mode_ == NodeMode::kUndefined && now >= refine_deadline_) {
    if (now >= hard_deadline_ || !rng_.Bernoulli(config_.p_wait)) {
      BecomeActive();
    }
  }

  if (mode_ == NodeMode::kUndefined) {
    ScheduleRefinement(now + 1);
  } else {
    electing_ = false;
  }
}

void SnapshotAgent::BecomeActive() {
  if (mode_ == NodeMode::kActive) return;
  mode_ = NodeMode::kActive;
  electing_ = false;
  sim_->journal().Emit("election.mode", sim_->now(),
                       [this](obs::JournalEvent& e) {
                         e.Node(id_).Epoch(epoch_).Str("mode", "active");
                       });
  // Rule-2 follow-through: an ACTIVE node must not be represented.
  if (rep_ != id_ && !recall_sent_) {
    SendRecall(rep_);
  }
  rep_ = id_;
}

void SnapshotAgent::BecomePassive() {
  if (mode_ == NodeMode::kPassive) return;
  mode_ = NodeMode::kPassive;
  electing_ = false;
  sim_->journal().Emit("election.mode", sim_->now(),
                       [this](obs::JournalEvent& e) {
                         e.Node(id_).Epoch(epoch_).Str("mode", "passive");
                       });
}

void SnapshotAgent::SendRecall(NodeId old_rep) {
  recall_sent_ = true;
  Message msg;
  msg.type = MessageType::kRecall;
  msg.from = id_;
  msg.to = old_rep;
  msg.epoch = epoch_;
  sim_->Send(msg);
}

void SnapshotAgent::OnRecall(const Message& msg) {
  SetRepresents(msg.from, std::nullopt);
}

void SnapshotAgent::OnStayActive(const Message& msg) {
  if (mode_ == NodeMode::kPassive) {
    // §5: modes never flip PASSIVE -> ACTIVE during refinement. The sender
    // will fall back to Rule-4.
    return;
  }
  // Heal a lost Accept: a StayActive implies the sender elected us.
  if (!RepresentsSince(msg.from)) SetRepresents(msg.from, msg.epoch);
  BecomeActive();
  // Skip the ack only when a broadcast covering this sender went out in
  // this very time unit — the sender will hear it (its StayActive merely
  // crossed ours in flight). A StayActive arriving on a *later* tick from
  // an already-acked member means the broadcast was lost: ack again.
  const auto acked = acked_.find(msg.from);
  const bool covered_this_tick = acked != acked_.end() &&
                                 acked->second == msg.epoch &&
                                 last_ack_broadcast_ == sim_->now();
  if (!covered_this_tick) {
    ScheduleRepAck();
  }
}

void SnapshotAgent::ScheduleRepAck() {
  if (ack_scheduled_) return;
  ack_scheduled_ = true;
  // Same time unit, after the tick's remaining deliveries: one broadcast
  // acknowledges every member that pinged this tick.
  sim_->ScheduleAfter(0, [this] { BroadcastRepAck(); });
}

void SnapshotAgent::BroadcastRepAck() {
  ack_scheduled_ = false;
  if (!sim_->alive(id_)) return;
  // One broadcast acknowledges every represented node at once (§5,
  // footnote: cheaper than individual acknowledgments).
  Message msg;
  msg.type = MessageType::kRepAck;
  msg.from = id_;
  msg.to = kBroadcastId;
  msg.epoch = epoch_;
  acked_.clear();
  for (const auto& [j, e] : represents()) {
    msg.ids.push_back(j);
    msg.epochs.push_back(e);
    acked_.emplace_hint(acked_.end(), j, e);
  }
  last_ack_broadcast_ = sim_->now();
  sim_->Send(msg);
}

void SnapshotAgent::OnRepAck(const Message& msg) {
  SNAPQ_CHECK_EQ(msg.ids.size(), msg.epochs.size());
  for (size_t i = 0; i < msg.ids.size(); ++i) {
    const NodeId j = msg.ids[i];
    const int64_t e = msg.epochs[i];
    if (j == id_) {
      // Rule-3 acknowledgment: our representative confirmed. The PASSIVE
      // transition keeps Rule-3's full precondition — in particular a node
      // that still represents members must stay in play, or they would be
      // stranded; it remembers the confirmation for when they leave.
      if (mode_ == NodeMode::kUndefined && rep_ == msg.from && e == epoch_) {
        rep_ack_seen_ = true;
        if (represents().empty()) BecomePassive();
      }
      continue;
    }
    // Spurious-representative self-correction (§3): if another node
    // acknowledges representing j at a newer epoch, our claim is stale.
    const std::optional<int64_t> mine = RepresentsSince(j);
    if (mine.has_value() && msg.from != id_ && e > *mine) {
      SetRepresents(j, std::nullopt);
    }
  }
}

// ---------------------------------------------------------------------------
// Maintenance (§5.1)
// ---------------------------------------------------------------------------

void SnapshotAgent::MaintenanceTick() {
  if (!sim_->alive(id_)) return;

  // LEACH-style rotation (§5.1): after serving rotation_rounds consecutive
  // rounds, a representative steps down and sits out a cooldown so the
  // energy cost of the role rotates through the neighborhood.
  if (cooldown_rounds_ > 0) --cooldown_rounds_;
  if (config_.rotation_rounds > 0 && mode_ == NodeMode::kActive &&
      !represents().empty()) {
    if (++rounds_served_ >= config_.rotation_rounds) {
      Message msg;
      msg.type = MessageType::kResign;
      msg.from = id_;
      msg.to = kBroadcastId;
      msg.epoch = epoch_;
      for (const auto& [j, e] : represents()) msg.ids.push_back(j);
      sim_->journal().Emit(
          "maintenance.resign", sim_->now(), [&](obs::JournalEvent& e) {
            e.Node(id_).Epoch(epoch_).Str("reason", "rotation").Int(
                "members", static_cast<int64_t>(msg.ids.size()));
          });
      sim_->Send(msg);
      ReleaseMembers();
      rounds_served_ = 0;
      cooldown_rounds_ = config_.rotation_cooldown;
    }
  } else if (mode_ != NodeMode::kActive || represents().empty()) {
    rounds_served_ = 0;
  }

  // Energy-based resignation: a depleted representative steps down and
  // ignores invitations from then on; released nodes re-elect.
  if (config_.resign_battery_fraction > 0.0 && mode_ == NodeMode::kActive &&
      !resigned_ && !represents().empty()) {
    const double initial = sim_->config().energy.initial_battery;
    if (sim_->battery(id_).remaining() <
        config_.resign_battery_fraction * initial) {
      Message msg;
      msg.type = MessageType::kResign;
      msg.from = id_;
      msg.to = kBroadcastId;
      msg.epoch = epoch_;
      for (const auto& [j, e] : represents()) msg.ids.push_back(j);
      sim_->journal().Emit(
          "maintenance.resign", sim_->now(), [&](obs::JournalEvent& e) {
            e.Node(id_).Epoch(epoch_).Str("reason", "energy").Int(
                "members", static_cast<int64_t>(msg.ids.size()));
          });
      sim_->Send(msg);
      resigned_ = true;
      ReleaseMembers();
    }
  }

  if (electing_) return;

  switch (mode_) {
    case NodeMode::kActive:
      // A lone active (represents only itself) periodically looks for a
      // representative of its own.
      if (represents().empty()) BeginLocalReelection();
      break;
    case NodeMode::kPassive: {
      if (rep_ == id_ || rep_ == kInvalidNode) {
        BeginLocalReelection();
        break;
      }
      // Heartbeat: report our value; the representative answers with its
      // estimate, which we check against the threshold.
      heartbeat_value_ = measurement();
      awaiting_reply_ = true;
      Message msg;
      msg.type = MessageType::kHeartbeat;
      msg.from = id_;
      msg.to = rep_;
      msg.value = heartbeat_value_;
      msg.epoch = epoch_;
      sim_->Send(msg);
      const int64_t sent_epoch = epoch_;
      sim_->ScheduleAfter(config_.heartbeat_timeout, [this, sent_epoch] {
        CheckHeartbeatReply(sent_epoch);
      });
      break;
    }
    case NodeMode::kUndefined:
      BeginLocalReelection();
      break;
  }
}

void SnapshotAgent::OnHeartbeat(const Message& msg, bool snooped) {
  if (snooped) {
    ObserveNeighbor(msg.from, msg.value);
    return;
  }
  if (resigned_ || mode_ != NodeMode::kActive) {
    // Stay silent; the sender times out and re-elects.
    ObserveNeighbor(msg.from, msg.value);
    return;
  }
  // Heal a lost Accept.
  if (!RepresentsSince(msg.from)) SetRepresents(msg.from, msg.epoch);
  // Record the *pre-update* estimate so the accuracy check is honest, then
  // fine-tune the model with the reported value (§3). All heartbeats of a
  // round are answered with one batched broadcast — a representative with
  // many members would otherwise burn its battery on unicast replies.
  const std::optional<double> estimate = models_.Estimate(msg.from);
  if (estimate.has_value()) {
    pending_replies_[msg.from] = *estimate;
    if (!reply_scheduled_) {
      reply_scheduled_ = true;
      sim_->ScheduleAfter(0, [this] { BroadcastHeartbeatReplies(); });
    }
  }
  ObserveNeighbor(msg.from, msg.value);
}

void SnapshotAgent::BroadcastHeartbeatReplies() {
  reply_scheduled_ = false;
  if (pending_replies_.empty() || !sim_->alive(id_)) {
    pending_replies_.clear();
    return;
  }
  Message reply;
  reply.type = MessageType::kHeartbeatReply;
  reply.from = id_;
  reply.to = kBroadcastId;
  reply.ids.reserve(pending_replies_.size());
  reply.values.reserve(pending_replies_.size());
  for (const auto& [member, estimate] : pending_replies_) {
    reply.ids.push_back(member);
    reply.values.push_back(estimate);
  }
  pending_replies_.clear();
  sim_->Send(reply);
}

void SnapshotAgent::OnHeartbeatReply(const Message& msg) {
  if (!awaiting_reply_ || msg.from != rep_) return;
  // Batched reply: find this node's estimate; an omitted entry means the
  // representative has no model for us (treated as a miss -> timeout).
  SNAPQ_CHECK_EQ(msg.ids.size(), msg.values.size());
  for (size_t i = 0; i < msg.ids.size(); ++i) {
    if (msg.ids[i] != id_) continue;
    awaiting_reply_ = false;
    heartbeat_misses_ = 0;
    // An out-of-bounds estimate means the model failed (data drift), not
    // the channel: re-elect immediately (§3). The violation becomes its
    // own trace root, causally linked to the heartbeat exchange that
    // detected it, so the analyzer can tie re-election traffic back to the
    // model breach (fig13-style spurious-reconfiguration forensics).
    if (config_.metric.Distance(heartbeat_value_, msg.values[i]) >
        config_.threshold) {
      sim_->registry().GetCounter("model.violations")->Inc();
      sim_->journal().Emit(
          "model.violation", sim_->now(), [&](obs::JournalEvent& e) {
            e.Node(id_).Epoch(epoch_)
                .Int("rep", static_cast<int64_t>(msg.from))
                .Num("reported", heartbeat_value_)
                .Num("estimate", msg.values[i]);
          });
      const TraceContext vctx =
          sim_->MintTraceRoot(obs::TraceRootKind::kViolation, id_);
      Simulator::TraceScope scope(*sim_, vctx);
      BeginLocalReelection();
    }
    return;
  }
}

void SnapshotAgent::CheckHeartbeatReply(int64_t sent_epoch) {
  if (!awaiting_reply_ || epoch_ != sent_epoch) return;
  awaiting_reply_ = false;
  // No answer: either the representative failed or the round trip was
  // lost. Tolerate a few consecutive misses before tearing down the
  // representation.
  if (++heartbeat_misses_ >= config_.heartbeat_miss_limit) {
    heartbeat_misses_ = 0;
    BeginLocalReelection();
  }
}

void SnapshotAgent::OnResign(const Message& msg) {
  SetRepresents(msg.from, std::nullopt);
  if (rep_ == msg.from && mode_ == NodeMode::kPassive) {
    BeginLocalReelection();
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void SnapshotAgent::HandleMessage(const Message& msg, bool snooped) {
  if (!sim_->alive(id_)) return;
  switch (msg.type) {
    case MessageType::kInvitation:
      OnInvitation(msg);
      return;
    case MessageType::kCandList:
      if (!snooped) OnCandList(msg);
      return;
    case MessageType::kAccept:
      if (!snooped) OnAccept(msg);
      return;
    case MessageType::kRecall:
      if (!snooped) OnRecall(msg);
      return;
    case MessageType::kStayActive:
      if (!snooped) OnStayActive(msg);
      return;
    case MessageType::kRepAck:
      OnRepAck(msg);
      return;
    case MessageType::kHeartbeat:
      OnHeartbeat(msg, snooped);
      return;
    case MessageType::kHeartbeatReply:
      if (!snooped) OnHeartbeatReply(msg);
      return;
    case MessageType::kResign:
      OnResign(msg);
      return;
    case MessageType::kData:
      ObserveNeighbor(msg.from, msg.value);
      return;
    case MessageType::kQueryRequest:
    case MessageType::kQueryReply:
      // Query traffic belongs to the query layer (e.g. the message-level
      // in-network aggregator).
      if (!snooped && query_handler_) query_handler_(msg);
      return;
    case MessageType::kMessageTypeCount:
      return;  // sentinel, never sent
  }
}

}  // namespace snapq
