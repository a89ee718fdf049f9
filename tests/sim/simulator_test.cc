#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "obs/energy_ledger.h"
#include "obs/metric_registry.h"
#include "obs/topo.h"
#include "obs/tracer.h"

namespace snapq {
namespace {

/// Three nodes in a line, unit spacing; `range` picks the connectivity.
Simulator MakeLine(double range, SimConfig config = {}) {
  return Simulator({{0, 0}, {1, 0}, {2, 0}}, {range, range, range}, config);
}

Message DataMsg(NodeId from, double value, NodeId to = kBroadcastId) {
  Message m;
  m.type = MessageType::kData;
  m.from = from;
  m.to = to;
  m.value = value;
  return m;
}

/// The message spans the tracer recorded for transmissions of `type`.
std::vector<const obs::TraceSpan*> MessageSpans(const obs::Tracer& tracer,
                                                MessageType type) {
  std::vector<const obs::TraceSpan*> out;
  for (const obs::TraceSpan& span : tracer.spans()) {
    if (span.kind == obs::TraceSpanKind::kMessage && span.msg_type == type) {
      out.push_back(&span);
    }
  }
  return out;
}

/// Sends `msg` under a freshly minted (always sampled) trace root.
void SendTraced(Simulator& sim, const Message& msg) {
  Simulator::TraceScope scope(
      sim, sim.MintTraceRoot(obs::TraceRootKind::kQuery, msg.from));
  sim.Send(msg);
}

TEST(SimulatorTest, BroadcastReachesNeighborsInRange) {
  Simulator sim = MakeLine(1.0);
  std::vector<int> received(3, 0);
  for (NodeId i = 0; i < 3; ++i) {
    sim.SetHandler(i, [&received, i](const Message&, bool) { ++received[i]; });
  }
  sim.Send(DataMsg(0, 1.0));
  sim.RunAll();
  EXPECT_EQ(received[0], 0);  // no self-delivery
  EXPECT_EQ(received[1], 1);
  EXPECT_EQ(received[2], 0);  // out of range
}

TEST(SimulatorTest, UnicastDeliversOnlyToAddressee) {
  Simulator sim = MakeLine(5.0);
  std::vector<int> received(3, 0);
  for (NodeId i = 0; i < 3; ++i) {
    sim.SetHandler(i, [&received, i](const Message&, bool) { ++received[i]; });
  }
  sim.Send(DataMsg(0, 1.0, /*to=*/2));
  sim.RunAll();
  EXPECT_EQ(received[1], 0);  // in range but not addressed, no snooping
  EXPECT_EQ(received[2], 1);
}

TEST(SimulatorTest, SnoopingOverhearsUnicasts) {
  SimConfig config;
  config.snoop_probability = 1.0;
  Simulator sim = MakeLine(5.0, config);
  int snooped = 0, direct = 0;
  sim.SetHandler(1, [&](const Message&, bool s) { s ? ++snooped : ++direct; });
  sim.SetHandler(2, [&](const Message&, bool s) { s ? ++snooped : ++direct; });
  sim.Send(DataMsg(0, 1.0, /*to=*/2));
  sim.RunAll();
  EXPECT_EQ(direct, 1);   // node 2
  EXPECT_EQ(snooped, 1);  // node 1 overheard
  EXPECT_EQ(sim.metrics().snooped(MessageType::kData), 1u);
}

TEST(SimulatorTest, LossDropsDeliveries) {
  SimConfig config;
  config.loss_probability = 1.0;
  Simulator sim = MakeLine(5.0, config);
  int received = 0;
  sim.SetHandler(1, [&](const Message&, bool) { ++received; });
  sim.Send(DataMsg(0, 1.0));
  sim.RunAll();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(sim.metrics().total_lost(), 2u);  // both receivers dropped
  EXPECT_EQ(sim.metrics().total_sent(), 1u);
}

TEST(SimulatorTest, SetLossProbabilityTakesEffectMidRun) {
  Simulator sim = MakeLine(5.0);
  int received = 0;
  sim.SetHandler(2, [&](const Message&, bool) { ++received; });
  sim.Send(DataMsg(0, 1.0, /*to=*/2));
  sim.RunAll();
  ASSERT_EQ(received, 1);
  sim.SetLossProbability(1.0);
  EXPECT_DOUBLE_EQ(sim.links().loss_probability(), 1.0);
  sim.Send(DataMsg(0, 2.0, /*to=*/2));
  sim.RunAll();
  EXPECT_EQ(received, 1);  // the addressed copy was lost, not delivered
  EXPECT_EQ(sim.metrics().total_lost(), 1u);
  sim.SetLossProbability(0.0);
  sim.Send(DataMsg(0, 3.0, /*to=*/2));
  sim.RunAll();
  EXPECT_EQ(received, 2);
}

TEST(SimulatorTest, SendingChargesTransmitCost) {
  SimConfig config;
  config.energy.initial_battery = 2.0;
  Simulator sim = MakeLine(1.0, config);
  EXPECT_TRUE(sim.Send(DataMsg(0, 1.0)));
  EXPECT_DOUBLE_EQ(sim.battery(0).remaining(), 1.0);
  EXPECT_TRUE(sim.Send(DataMsg(0, 1.0)));  // final transmission
  EXPECT_FALSE(sim.alive(0));
  EXPECT_FALSE(sim.Send(DataMsg(0, 1.0)));  // dead nodes cannot send
  EXPECT_EQ(sim.metrics().total_sent(), 2u);
}

TEST(SimulatorTest, DeadNodesDoNotReceive) {
  Simulator sim = MakeLine(5.0);
  int received = 0;
  sim.SetHandler(1, [&](const Message&, bool) { ++received; });
  sim.Kill(1);
  sim.Send(DataMsg(0, 1.0));
  sim.RunAll();
  EXPECT_EQ(received, 0);
}

TEST(SimulatorTest, CacheOpChargesTenthOfTransmission) {
  SimConfig config;
  config.energy.initial_battery = 1.0;
  Simulator sim = MakeLine(1.0, config);
  sim.ChargeCacheOp(0);
  EXPECT_NEAR(sim.battery(0).remaining(), 0.9, 1e-12);
  EXPECT_EQ(sim.metrics().cache_ops(), 1u);
}

TEST(SimulatorTest, PerNodeSentCounters) {
  Simulator sim = MakeLine(1.0);
  sim.Send(DataMsg(0, 1.0));
  sim.Send(DataMsg(0, 2.0));
  sim.Send(DataMsg(1, 3.0));
  EXPECT_EQ(sim.messages_sent_by(0), 2u);
  EXPECT_EQ(sim.messages_sent_by(1), 1u);
  EXPECT_EQ(sim.messages_sent_by(2), 0u);
  sim.ResetPerNodeCounters();
  EXPECT_EQ(sim.messages_sent_by(0), 0u);
}

TEST(SimulatorTest, DeliveryHappensAtSendTime) {
  Simulator sim = MakeLine(1.0);
  Time delivered_at = -1;
  sim.SetHandler(1, [&](const Message&, bool) { delivered_at = sim.now(); });
  sim.ScheduleAt(7, [&] { sim.Send(DataMsg(0, 1.0)); });
  sim.RunAll();
  EXPECT_EQ(delivered_at, 7);
}

TEST(SimulatorTest, MessageCopiedIntoDelivery) {
  Simulator sim = MakeLine(1.0);
  double got = 0.0;
  sim.SetHandler(1, [&](const Message& m, bool) { got = m.value; });
  {
    Message m = DataMsg(0, 42.0);
    sim.Send(m);
    m.value = -1.0;  // mutation after Send must not affect delivery
  }
  sim.RunAll();
  EXPECT_DOUBLE_EQ(got, 42.0);
}

/// `n` nodes on a line at unit spacing, every pair in range.
Simulator MakeClique(size_t n, SimConfig config = {}) {
  std::vector<Point> positions;
  for (size_t i = 0; i < n; ++i) {
    positions.push_back({static_cast<double>(i), 0});
  }
  return Simulator(std::move(positions),
                   std::vector<double>(n, static_cast<double>(n)), config);
}

TEST(SimulatorTest, SendFromHandlerRunsAfterTheWholeBroadcast) {
  Simulator sim = MakeClique(4);
  // (receiver, sender) in delivery order.
  std::vector<std::pair<NodeId, NodeId>> log;
  bool relayed = false;
  for (NodeId i = 0; i < 4; ++i) {
    sim.SetHandler(i, [&, i](const Message& m, bool) {
      log.push_back({i, m.from});
      if (m.from == 0 && !relayed) {
        relayed = true;  // the first copy of node 0's broadcast
        sim.Send(DataMsg(i, 2.0));
      }
    });
  }
  sim.Send(DataMsg(0, 1.0));
  sim.RunAll();
  const std::vector<std::pair<NodeId, NodeId>> want = {
      {1, 0}, {2, 0}, {3, 0}, {0, 1}, {2, 1}, {3, 1}};
  EXPECT_EQ(log, want);
}

TEST(SimulatorTest, ReceiverKilledMidBroadcastGetsNothing) {
  SimConfig config;
  config.energy.initial_battery = 10.0;
  config.energy.rx_cost = 0.5;
  Simulator sim = MakeClique(4, config);
  obs::MetricRegistry registry;
  obs::EnergyLedger ledger(config.energy, sim.num_nodes(), &registry);
  sim.SetEnergyLedger(&ledger);
  std::vector<int> received(4, 0);
  for (NodeId i = 0; i < 4; ++i) {
    sim.SetHandler(i, [&, i](const Message&, bool) {
      ++received[i];
      if (i == 1) sim.Kill(3);  // 3 comes later in the same transmission
    });
  }
  sim.Send(DataMsg(0, 1.0));
  sim.RunAll();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 1, 0}));
  EXPECT_EQ(sim.metrics().delivered(MessageType::kData), 2u);
  const size_t rx = obs::EnergyLedger::CellIndex(obs::EnergyDirection::kRx,
                                                 MessageType::kData);
  EXPECT_DOUBLE_EQ(ledger.cell(2, rx), 0.5);
  EXPECT_EQ(ledger.cell(3, rx), 0.0);
}

TEST(SimulatorTest, ReentrantSendsKeepTheOuterPayload) {
  constexpr size_t kNodes = 8;
  Simulator sim = MakeClique(kNodes);
  Message outer = DataMsg(0, 42.0);
  outer.ids = {1, 2, 3};
  outer.epochs = {4, 5, 6};
  outer.values = {0.25, 0.5, 0.75};
  std::vector<int> outer_copies(kNodes, 0);
  for (NodeId i = 0; i < kNodes; ++i) {
    sim.SetHandler(i, [&, i](const Message& m, bool) {
      if (m.from != 0) return;
      EXPECT_EQ(m.value, outer.value) << "node " << i;
      EXPECT_EQ(m.ids, outer.ids) << "node " << i;
      EXPECT_EQ(m.epochs, outer.epochs) << "node " << i;
      EXPECT_EQ(m.values, outer.values) << "node " << i;
      ++outer_copies[i];
      if (i != 1) return;
      // The first receiver floods the pool with transmissions of its own,
      // each with different payloads, while node 0's is still in flight.
      for (int k = 0; k < 32; ++k) {
        Message inner = DataMsg(i, -1.0 - k);
        inner.ids.assign(16, 9);
        inner.epochs.assign(16, 9);
        inner.values.assign(16, -9.0);
        sim.Send(inner);
      }
    });
  }
  sim.Send(outer);
  sim.RunAll();
  std::vector<int> want(kNodes, 1);
  want[0] = 0;
  EXPECT_EQ(outer_copies, want);
  EXPECT_EQ(sim.metrics().total_sent(), 33u);
  EXPECT_EQ(sim.metrics().total_delivered(), (kNodes - 1) * 33);
}

TEST(SimulatorTest, ScheduleAfterUsesRelativeTime) {
  Simulator sim = MakeLine(1.0);
  Time fired = -1;
  sim.ScheduleAt(5, [&] {
    sim.ScheduleAfter(3, [&] { fired = sim.now(); });
  });
  sim.RunAll();
  EXPECT_EQ(fired, 8);
}

TEST(SimulatorTest, ReceiveCostConfigurable) {
  SimConfig config;
  config.energy.initial_battery = 10.0;
  config.energy.rx_cost = 0.5;
  Simulator sim = MakeLine(1.0, config);
  sim.Send(DataMsg(0, 1.0));
  sim.RunAll();
  EXPECT_DOUBLE_EQ(sim.battery(1).remaining(), 9.5);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    SimConfig config;
    config.loss_probability = 0.5;
    config.seed = seed;
    Simulator sim({{0, 0}, {0.5, 0}, {1, 0}}, {2.0, 2.0, 2.0}, config);
    int received = 0;
    for (NodeId i = 0; i < 3; ++i) {
      sim.SetHandler(i, [&](const Message&, bool) { ++received; });
    }
    for (int k = 0; k < 100; ++k) sim.Send(DataMsg(0, k));
    sim.RunAll();
    return received;
  };
  EXPECT_EQ(run(9), run(9));
  // Not a hard guarantee, but overwhelmingly likely for 200 Bernoulli draws:
  EXPECT_NE(run(9), run(10));
}

TEST(SimulatorTraceTest, RecordsSendsDeliveriesAndLosses) {
  Simulator sim = MakeLine(1.0);
  obs::Tracer tracer;
  obs::LinkObserver links(sim.num_nodes());
  sim.SetTracer(&tracer);
  sim.SetLinkObserver(&links);
  sim.mutable_links().SetLinkLoss(1, 2, 1.0);
  SendTraced(sim, DataMsg(1, 1.0));
  sim.RunAll();

  // One send, one delivery (to node 0), one loss (to node 2).
  const auto sends = MessageSpans(tracer, MessageType::kData);
  ASSERT_EQ(sends.size(), 1u);
  const std::vector<obs::TraceDelivery>& outcomes = sends[0]->deliveries;
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].node, 2u);
  EXPECT_EQ(outcomes[0].outcome, RadioEventKind::kLoss);
  EXPECT_EQ(outcomes[1].node, 0u);
  EXPECT_EQ(outcomes[1].outcome, RadioEventKind::kDeliver);
  ASSERT_NE(links.Find(1, 0), nullptr);
  EXPECT_EQ(links.Find(1, 0)->deliveries, 1u);
  EXPECT_EQ(links.Find(1, 0)->losses, 0u);
  ASSERT_NE(links.Find(1, 2), nullptr);
  EXPECT_EQ(links.Find(1, 2)->deliveries, 0u);
  EXPECT_EQ(links.Find(1, 2)->losses, 1u);
}

TEST(SimulatorTraceTest, SnoopedDeliveriesTaggedSeparately) {
  SimConfig config;
  config.snoop_probability = 1.0;
  Simulator sim = MakeLine(5.0, config);
  obs::Tracer tracer;
  obs::LinkObserver links(sim.num_nodes());
  sim.SetTracer(&tracer);
  sim.SetLinkObserver(&links);
  Message m = DataMsg(0, 1.0, /*to=*/1);
  m.type = MessageType::kHeartbeat;
  SendTraced(sim, m);
  sim.RunAll();

  const auto sends = MessageSpans(tracer, MessageType::kHeartbeat);
  ASSERT_EQ(sends.size(), 1u);
  const std::vector<obs::TraceDelivery>& outcomes = sends[0]->deliveries;
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].node, 1u);
  EXPECT_EQ(outcomes[0].outcome, RadioEventKind::kDeliver);
  EXPECT_EQ(outcomes[1].node, 2u);
  EXPECT_EQ(outcomes[1].outcome, RadioEventKind::kSnoop);
  ASSERT_NE(links.Find(0, 1), nullptr);
  EXPECT_EQ(links.Find(0, 1)->deliveries, 1u);
  ASSERT_NE(links.Find(0, 2), nullptr);
  EXPECT_EQ(links.Find(0, 2)->deliveries, 0u);
  EXPECT_EQ(links.Find(0, 2)->snoops, 1u);
}

TEST(SimulatorTraceTest, DetachStopsRecording) {
  Simulator sim = MakeLine(1.0);
  obs::Tracer tracer;
  sim.SetTracer(&tracer);
  SendTraced(sim, DataMsg(0, 1.0));
  sim.SetTracer(nullptr);
  SendTraced(sim, DataMsg(0, 2.0));
  sim.RunAll();

  // Only the first send was traced, and its delivery ran after the detach.
  const auto sends = MessageSpans(tracer, MessageType::kData);
  ASSERT_EQ(sends.size(), 1u);
  EXPECT_TRUE(sends[0]->deliveries.empty());
  EXPECT_EQ(tracer.num_traces(), 1u);
}

}  // namespace
}  // namespace snapq
