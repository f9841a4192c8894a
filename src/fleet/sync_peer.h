// SyncPeer: the node side of the streaming bulk-sync protocol
// (docs/BOOTSTRAP.md) that every node class shares. It owns the joiner's
// BulkPullSession, answers frontier and range requests through one throttled
// send path, and implements the BulkPullSession::Env hooks that do not depend
// on the strategy. A node class derives from it and implements only the
// strategy-specific hooks: which bodies it wants, where to fetch them, how to
// commit them.
//
// drive_join runs one join end to end over a FleetRuntime: it owns the
// crash-safe checkpoint, wires crash/resume through the runtime's status
// observer, and advances the simulation in bounded windows (a faulted run
// never quiesces, so settle() is not an option).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "fleet/runtime.h"
#include "sync/checkpoint.h"
#include "sync/session.h"

namespace ici::fleet {

class SyncPeer : private sync::BulkPullSession::Env {
 public:
  SyncPeer(FleetRuntime& rt, sim::NodeId id) : rt_(rt), id_(id) {}
  // The session and deferred sends hold this peer's address.
  SyncPeer(const SyncPeer&) = delete;
  SyncPeer& operator=(const SyncPeer&) = delete;

  [[nodiscard]] sim::NodeId id() const { return id_; }

  /// Streaming join: frontier exchange with `candidates`, then windowed
  /// multi-peer bulk pull. `checkpoint` is held by the driver (not the node)
  /// so it survives a mid-sync crash; a restarted node resumes by calling
  /// this again over the same checkpoint.
  void start_streaming_sync(const sync::SyncConfig& cfg, sync::SyncCheckpoint* checkpoint,
                            std::vector<sim::NodeId> candidates,
                            std::function<void(const sync::SyncReport&)> on_done);
  /// Crash semantics: drops the in-memory session; every outstanding sync
  /// timer becomes inert. The driver-held checkpoint is untouched.
  void abandon_sync() { session_.reset(); }

 protected:
  ~SyncPeer() override = default;

  /// Answers a frontier/range request from `store` or forwards a response
  /// to the running session. `inventory` counts the bodies (or, with
  /// `serves_shards`, the erasure shards) this node can serve.
  void handle_sync_message(sim::NodeId from, const sync::SyncMessage& msg,
                           const BlockStore& store, std::uint64_t inventory,
                           bool serves_shards = false);

  /// Sends `msg` after `delay_us` of sim time — a cold read's media delay,
  /// a throttle's wait — or at once when it is zero. The deferred send runs
  /// in this node's own context: the peer just sees the answer later.
  void send_after(sim::NodeId to, sim::MessagePtr msg, std::uint64_t delay_us);

 private:
  /// Sends a serve-side response once the store has read the bodies
  /// (`io_delay_us`) and the per-peer token bucket has room.
  void send_sync_response(sim::NodeId to, sim::MessagePtr msg, std::uint64_t io_delay_us);

  [[nodiscard]] sim::NodeId sync_self() const final { return id_; }
  [[nodiscard]] sim::Simulator& sync_simulator() final { return rt_.simulator(); }
  void sync_send(sim::NodeId to, sim::MessagePtr msg) final;
  [[nodiscard]] std::size_t sync_message_overhead() const final {
    return rt_.network().config().per_message_overhead;
  }

  FleetRuntime& rt_;
  sim::NodeId id_;
  std::shared_ptr<sync::BulkPullSession> session_;
  std::uint64_t epoch_ = 0;  // distinguishes sessions across resumes
};

/// Result of joining a fresh node. Every simulated strategy fills it from
/// drive_join; the pruned strategy's closed-form estimate leaves `protocol`
/// false.
struct JoinReport {
  /// True when the numbers come from the streaming bulk-sync protocol.
  bool protocol = false;
  bool complete = false;
  sim::NodeId joiner = 0;
  /// The joiner's cluster (ICI) or committee (RapidChain).
  std::size_t cluster = 0;
  /// Wire-level total from the network's per-node tally, so coded
  /// reconstruction traffic outside the session counts too.
  std::uint64_t bytes_downloaded = 0;
  sim::SimTime elapsed_us = 0;
  std::size_t bodies_fetched = 0;
  /// Protocol-level detail (per-peer attribution, retries, resume count).
  sync::SyncReport sync;
};

/// Runs `joiner`'s join against `candidates` (frontier probe targets in
/// preference order), folds the result into the runtime's `sync.*` metrics
/// and bootstrap spans, and reports it.
[[nodiscard]] JoinReport drive_join(FleetRuntime& rt, SyncPeer& joiner,
                                    const sync::SyncConfig& cfg,
                                    const std::vector<sim::NodeId>& candidates);

}  // namespace ici::fleet
