// The paper's worked example (§5, Figures 3 and 4), replayed step by step
// on the real protocol implementation. Eight nodes, the candidate lists of
// Figure 3, and the refinement rules of Figure 5 produce exactly the final
// snapshot of Figure 4: representatives N3, N4, N7.
//
//   $ ./build/examples/election_walkthrough
#include <cstdio>
#include <memory>
#include <vector>

#include "snapshot/election.h"

using namespace snapq;

namespace {

/// Injects history so `rep` can predict `target` exactly (a slope-1 line
/// through their current values).
void Teach(std::vector<std::unique_ptr<SnapshotAgent>>& agents, NodeId rep,
           NodeId target) {
  const double vi = agents[rep]->measurement();
  const double vj = agents[target]->measurement();
  agents[rep]->models().cache().Observe(target, vi - 1.0, vj - 1.0, 0);
  agents[rep]->models().cache().Observe(target, vi + 1.0, vj + 1.0, 0);
}

const char* PaperName(NodeId id) {
  static const char* names[] = {"N1", "N2", "N3", "N4",
                                "N5", "N6", "N7", "N8"};
  return names[id];
}

}  // namespace

int main() {
  // Eight nodes, all within radio range of each other.
  std::vector<Point> positions;
  for (int i = 0; i < 8; ++i) {
    positions.push_back({0.1 * i, 0.0});
  }
  Simulator sim(std::move(positions), std::vector<double>(8, 10.0), {});
  std::vector<std::unique_ptr<SnapshotAgent>> agents;
  SnapshotConfig config;
  for (NodeId i = 0; i < 8; ++i) {
    agents.push_back(std::make_unique<SnapshotAgent>(i, &sim, config, i));
    agents.back()->Install();
    agents.back()->SetMeasurement(100.0 + 10.0 * i);
  }

  // Figure 3's candidate relations (paper N1..N8 = ids 0..7):
  //   Cand_1={N2}  Cand_3={N4,N6}  Cand_4={N1,N2,N3,N5}
  //   Cand_5={N8}  Cand_6={N7}     Cand_7={N8}
  std::printf("Teaching the Figure-3 candidate relations...\n");
  Teach(agents, 0, 1);
  Teach(agents, 2, 3);
  Teach(agents, 2, 5);
  Teach(agents, 3, 0);
  Teach(agents, 3, 1);
  Teach(agents, 3, 2);
  Teach(agents, 3, 4);
  Teach(agents, 4, 7);
  Teach(agents, 5, 6);
  Teach(agents, 6, 7);

  std::printf("Running the discovery protocol (Table 2 + Figure 5)...\n\n");
  const ElectionStats stats = RunGlobalElection(sim, agents, 0, config);

  const SnapshotView view = CaptureSnapshot(sim);
  for (NodeId i = 0; i < 8; ++i) {
    const auto& info = view.node(i);
    std::printf("%s: %-7s", PaperName(i), NodeModeName(info.mode));
    if (info.mode == NodeMode::kPassive) {
      std::printf(" represented by %s", PaperName(info.representative));
    } else if (!view.represents(i).empty()) {
      std::printf(" represents {");
      bool first = true;
      for (const SnapshotView::Entry& entry : view.represents(i)) {
        std::printf("%s%s", first ? "" : ", ", PaperName(entry.member));
        first = false;
      }
      std::printf("}");
    }
    std::printf("   (%llu messages sent)\n",
                static_cast<unsigned long long>(sim.messages_sent_by(i)));
  }
  std::printf("\n%zu representatives, %zu passive nodes; "
              "max %g messages per node (Table 2 bound: 5)\n",
              stats.num_active, stats.num_passive,
              stats.max_messages_per_node);
  std::printf("Figure 4 expects: representatives N3, N4, N7 with "
              "N4->{N1,N2,N5}, N3->{N6}, N7->{N8}\n");
  return 0;
}
