#include "snapshot/node_state.h"

#include <gtest/gtest.h>

namespace snapq {
namespace {

using NodeInfo = SnapshotView::NodeInfo;
using Entry = SnapshotView::Entry;

NodeInfo Active(NodeId self) {
  NodeInfo info;
  info.mode = NodeMode::kActive;
  info.representative = self;
  return info;
}

NodeInfo Passive(NodeId rep, int64_t epoch = 1) {
  NodeInfo info;
  info.mode = NodeMode::kPassive;
  info.representative = rep;
  info.epoch = epoch;
  return info;
}

TEST(NodeModeTest, Names) {
  EXPECT_STREQ(NodeModeName(NodeMode::kUndefined), "UNDEFINED");
  EXPECT_STREQ(NodeModeName(NodeMode::kActive), "ACTIVE");
  EXPECT_STREQ(NodeModeName(NodeMode::kPassive), "PASSIVE");
}

TEST(SnapshotViewTest, CountsByMode) {
  SnapshotView view({Active(0), Passive(0), Passive(0), NodeInfo{}},
                    {{0, 1, 1}, {0, 2, 1}});
  EXPECT_EQ(view.num_nodes(), 4u);
  EXPECT_EQ(view.CountActive(), 1u);
  EXPECT_EQ(view.CountPassive(), 2u);
  EXPECT_EQ(view.CountUndefined(), 1u);
}

TEST(SnapshotViewTest, DeadNodesExcludedFromCounts) {
  NodeInfo dead = Active(0);
  dead.alive = false;
  SnapshotView view({dead, Passive(0)});
  EXPECT_EQ(view.CountActive(), 0u);
  EXPECT_EQ(view.CountPassive(), 1u);
}

TEST(SnapshotViewTest, CurrentRepresentationMatchesEpochs) {
  SnapshotView view({Active(0), Passive(0, 5)}, {{0, 1, 5}});
  EXPECT_TRUE(view.RepresentsCurrently(0, 1));
}

TEST(SnapshotViewTest, StaleWhenEpochMoved) {
  // Node 1 re-elected (epoch 6) and now points at node 0 again... but the
  // holder recorded epoch 5, so the old entry is stale.
  SnapshotView view({Active(0), Passive(0, 6)}, {{0, 1, 5}});
  EXPECT_FALSE(view.RepresentsCurrently(0, 1));
}

TEST(SnapshotViewTest, StaleWhenRepresentativeChanged) {
  SnapshotView view({Active(0), Active(1), Passive(1, 2)},
                    {{0, 2, 1}, {1, 2, 2}});
  EXPECT_FALSE(view.RepresentsCurrently(0, 2));
  EXPECT_TRUE(view.RepresentsCurrently(1, 2));
  EXPECT_EQ(view.CountSpurious(), 1u);  // node 0 holds a stale entry
}

TEST(SnapshotViewTest, SelfIsAlwaysCurrent) {
  SnapshotView view({Active(0)});
  EXPECT_TRUE(view.RepresentsCurrently(0, 0));
}

TEST(SnapshotViewTest, SpuriousCountsNodesNotEntries) {
  SnapshotView view({Active(0), Passive(3, 1), Passive(3, 1), Active(3)},
                    {{0, 1, 9}, {0, 2, 9}});  // both stale
  EXPECT_EQ(view.CountSpurious(), 1u);
}

TEST(SnapshotViewTest, ResponderForActiveIsSelf) {
  SnapshotView view({Active(0)});
  EXPECT_EQ(view.ResponderFor(0), 0u);
}

TEST(SnapshotViewTest, ResponderForPassiveIsCurrentRep) {
  SnapshotView view({Active(0), Passive(0, 3)}, {{0, 1, 3}});
  EXPECT_EQ(view.ResponderFor(1), 0u);
}

TEST(SnapshotViewTest, ResponderMissingWhenRepDead) {
  NodeInfo rep = Active(0);
  rep.alive = false;
  SnapshotView view({rep, Passive(0, 3)}, {{0, 1, 3}});
  EXPECT_EQ(view.ResponderFor(1), kInvalidNode);
}

TEST(SnapshotViewTest, ResponderMissingWhenEntryStale) {
  // Stale: node 1 is at epoch 3.
  SnapshotView view({Active(0), Passive(0, 3)}, {{0, 1, 2}});
  EXPECT_EQ(view.ResponderFor(1), kInvalidNode);
}

TEST(SnapshotViewTest, EntriesAreSlicedPerRepresentative) {
  SnapshotView view({Active(0), Passive(0), Active(2), Passive(2)},
                    {{0, 1, 1}, {2, 1, 1}, {2, 3, 1}});
  EXPECT_EQ(view.entries().size(), 3u);
  ASSERT_EQ(view.represents(0).size(), 1u);
  EXPECT_EQ(view.represents(0)[0].member, 1u);
  EXPECT_TRUE(view.represents(1).empty());
  ASSERT_EQ(view.represents(2).size(), 2u);
  EXPECT_EQ(view.represents(2)[0].member, 1u);
  EXPECT_EQ(view.represents(2)[1].member, 3u);
  EXPECT_TRUE(view.represents(3).empty());
  EXPECT_FALSE(view.RepresentsCurrently(2, 1));  // node 1 points at 0
  EXPECT_TRUE(view.RepresentsCurrently(2, 3));
}

TEST(SnapshotViewDeathTest, EntriesMustBeSortedUniqueAndInRange) {
  const std::vector<NodeInfo> rows = {Active(0), Passive(0), Passive(0)};
  EXPECT_DEATH(SnapshotView(rows, std::vector<Entry>{{0, 2, 1}, {0, 1, 1}}),
               "SNAPQ_CHECK");
  EXPECT_DEATH(SnapshotView(rows, std::vector<Entry>{{0, 1, 1}, {0, 1, 1}}),
               "SNAPQ_CHECK");
  EXPECT_DEATH(SnapshotView(rows, std::vector<Entry>{{0, 3, 1}}),
               "SNAPQ_CHECK");
}

TEST(SnapshotViewTest, DeadUnrepresentedNodeHasNoResponder) {
  NodeInfo dead = Active(0);
  dead.alive = false;
  SnapshotView view({dead});
  EXPECT_EQ(view.ResponderFor(0), kInvalidNode);
}

}  // namespace
}  // namespace snapq
