#include "snapshot/health_probe.h"

#include "model/cache_line.h"
#include "snapshot/election.h"
#include "snapshot/node_state.h"

namespace snapq {

obs::HealthSample ProbeSnapshotHealth(
    Simulator& sim,
    const std::vector<std::unique_ptr<SnapshotAgent>>& agents) {
  obs::HealthSample sample;
  sample.num_nodes = agents.size();

  const SnapshotView view = CaptureSnapshot(sim);
  for (const SnapshotView::NodeInfo& row : view.nodes()) {
    if (!row.alive) continue;
    ++sample.num_live;
    switch (row.mode) {
      case NodeMode::kActive:
        ++sample.num_active;
        break;
      case NodeMode::kPassive:
        ++sample.num_passive;
        break;
      case NodeMode::kUndefined:
        ++sample.num_undefined;
        break;
    }
  }
  sample.num_spurious = view.CountSpurious();
  sample.violations = sim.registry().GetCounter("model.violations")->value();
  sample.reelections =
      sim.registry().GetCounter("maintenance.reelections")->value();

  // Mean staleness of the models backing current representations, summed
  // in (rep, member) order; only representatives' agents are read.
  const Time now = sim.now();
  double total_staleness = 0.0;
  uint64_t pairs = 0;
  for (const SnapshotView::Entry& entry : view.entries()) {
    if (!view.node(entry.rep).alive ||
        !view.RepresentsCurrently(entry.rep, entry.member)) {
      continue;
    }
    const CacheLine* line =
        agents[entry.rep]->models().cache().Line(entry.member);
    const Time seen =
        (line != nullptr && !line->empty()) ? line->newest().time : 0;
    total_staleness += static_cast<double>(now - seen);
    ++pairs;
  }
  sample.mean_model_staleness =
      pairs > 0 ? total_staleness / static_cast<double>(pairs) : 0.0;
  return sample;
}

}  // namespace snapq
