// Bootstrap driver: runs the streaming bulk-sync join protocol end-to-end
// inside the simulation and reports byte-accurate download cost and elapsed
// time — the quantities experiment E05/E22 compare against full-replication
// and RapidChain bootstrapping.
//
// The driver — not the joining node — owns the SyncCheckpoint, so a
// FaultPlan crash window that kills the joiner mid-sync destroys only the
// in-memory BulkPullSession; when the injector restarts the node, the
// driver's status observer opens a new session over the same checkpoint and
// the join resumes from the last verified range (docs/BOOTSTRAP.md).
#pragma once

#include "fleet/sync_peer.h"
#include "ici/network.h"

namespace ici::core {

class Bootstrapper {
 public:
  /// Adds a fresh node at `coord`, joins it to the cluster with the nearest
  /// members, runs the join protocol to completion, and reports the cost.
  /// The simulation must be quiescent when called.
  [[nodiscard]] static fleet::JoinReport join(IciNetwork& net, sim::Coord coord,
                                              const sync::SyncConfig& cfg = {});

  /// Split entry points for fault experiments: add the node first (so a
  /// FaultPlan can script crash windows on its id), start faults, then run.
  [[nodiscard]] static cluster::NodeId add_joiner_nearest(IciNetwork& net,
                                                         sim::Coord coord);
  [[nodiscard]] static fleet::JoinReport run(IciNetwork& net, cluster::NodeId joiner,
                                             const sync::SyncConfig& cfg);
};

}  // namespace ici::core
