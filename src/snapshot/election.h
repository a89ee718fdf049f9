// Network-wide representative discovery: drives every agent through the
// Table-2 phases and collects the resulting snapshot.
#ifndef SNAPQ_SNAPSHOT_ELECTION_H_
#define SNAPQ_SNAPSHOT_ELECTION_H_

#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "snapshot/agent.h"
#include "snapshot/node_state.h"

namespace snapq {

/// Summary of a discovery run.
struct ElectionStats {
  size_t num_active = 0;
  size_t num_passive = 0;
  size_t num_undefined = 0;  // should be 0 among live nodes
  size_t num_spurious = 0;
  /// Messages sent per live node during the election (all types).
  double avg_messages_per_node = 0.0;
  double max_messages_per_node = 0.0;
};

/// Captures the current representation state of the simulator's nodes:
/// every node's row and every represents-entry of its representation
/// index, plus liveness. Reads no agent.
SnapshotView CaptureSnapshot(const Simulator& sim);

/// Runs a network-wide discovery starting at time t0 (>= sim.now()): every
/// live agent broadcasts an invitation at t0, selection happens at t0+2 and
/// the refinement rules run until every node settles (bounded by the
/// Rule-4 hard cap of `config`, which must match the agents'). Per-node
/// message counters are reset at t0 so the returned stats cover exactly
/// this election. The simulator is advanced only to the election's bound;
/// unrelated events scheduled further out stay pending.
ElectionStats RunGlobalElection(
    Simulator& sim, const std::vector<std::unique_ptr<SnapshotAgent>>& agents,
    Time t0, const SnapshotConfig& config);

/// Stats of the current representation state without running anything.
ElectionStats SummarizeSnapshot(const Simulator& sim);

}  // namespace snapq

#endif  // SNAPQ_SNAPSHOT_ELECTION_H_
