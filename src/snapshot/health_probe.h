// Bridges the protocol layer to the obs::SnapshotHealthMonitor: builds a
// HealthSample from the live state (mode census and spurious count from a
// snapshot capture, cumulative violation/re-election counters from the
// registry, and model staleness from the representatives' caches).
#ifndef SNAPQ_SNAPSHOT_HEALTH_PROBE_H_
#define SNAPQ_SNAPSHOT_HEALTH_PROBE_H_

#include <memory>
#include <vector>

#include "obs/health_monitor.h"
#include "sim/simulator.h"
#include "snapshot/agent.h"

namespace snapq {

/// Samples snapshot health right now. Staleness is the mean over all
/// current representation pairs (rep r, member j) of now() minus the time
/// r last observed j (pairs with no cached observation contribute the
/// full sim time — the rep is flying blind on that member).
obs::HealthSample ProbeSnapshotHealth(
    Simulator& sim, const std::vector<std::unique_ptr<SnapshotAgent>>& agents);

}  // namespace snapq

#endif  // SNAPQ_SNAPSHOT_HEALTH_PROBE_H_
