#include "fleet/sync_peer.h"

#include "obs/trace.h"
#include "sync/serve.h"

namespace ici::fleet {

void SyncPeer::start_streaming_sync(const sync::SyncConfig& cfg,
                                    sync::SyncCheckpoint* checkpoint,
                                    std::vector<sim::NodeId> candidates,
                                    std::function<void(const sync::SyncReport&)> on_done) {
  const std::uint64_t session_id = (static_cast<std::uint64_t>(id_) << 20) + (++epoch_);
  session_ = sync::BulkPullSession::start(*this, cfg, checkpoint, std::move(candidates),
                                          session_id, std::move(on_done));
}

void SyncPeer::handle_sync_message(sim::NodeId from, const sync::SyncMessage& msg,
                                   const BlockStore& store, std::uint64_t inventory,
                                   bool serves_shards) {
  switch (msg.sync_kind()) {
    case sync::SyncMsgKind::kFrontierRequest: {
      const auto& req = static_cast<const sync::FrontierRequestMsg&>(msg);
      send_sync_response(from, sync::serve_frontier(store, req, inventory, serves_shards), 0);
      break;
    }
    case sync::SyncMsgKind::kRangeRequest: {
      const auto& req = static_cast<const sync::RangeRequestMsg&>(msg);
      sync::ServedRange served = sync::serve_range(store, req);
      send_sync_response(from, std::move(served.msg), served.io_delay_us);
      break;
    }
    case sync::SyncMsgKind::kFrontierResponse:
    case sync::SyncMsgKind::kRangeResponse:
      if (session_) session_->on_sync_message(from, msg);
      break;
  }
}

void SyncPeer::send_sync_response(sim::NodeId to, sim::MessagePtr msg,
                                  std::uint64_t io_delay_us) {
  std::uint64_t delay = io_delay_us;
  if (sync::ServeThrottle* throttle = rt_.serve_throttle()) {
    const std::uint64_t t = throttle->delay_for(id_, to, msg->wire_size(), rt_.simulator().now());
    if (t > 0) rt_.metrics().counter("sync.serve_throttled").inc();
    delay += t;
  }
  send_after(to, std::move(msg), delay);
}

void SyncPeer::send_after(sim::NodeId to, sim::MessagePtr msg, std::uint64_t delay_us) {
  if (delay_us > 0) {
    rt_.simulator().after(delay_us, [this, to, msg = std::move(msg)] {
      rt_.network().send(id_, to, msg);
    });
    return;
  }
  rt_.network().send(id_, to, std::move(msg));
}

void SyncPeer::sync_send(sim::NodeId to, sim::MessagePtr msg) {
  rt_.network().send(id_, to, std::move(msg));
}

namespace {

/// Upper bound on how long the driver keeps the simulation running for one
/// join. Only reached when the joiner crashes and never restarts; a healthy
/// sync exits the drive loop at its completion callback.
constexpr sim::SimTime kDriveCapUs = 600'000'000;  // 10 min of sim time
/// Drive-loop window. Small enough that the loop notices completion (and a
/// capped run samples fault counters) promptly; exact timing comes from the
/// completion callback, not the window edge.
constexpr sim::SimTime kDriveStepUs = 250'000;

/// Folds a finished join into the registry (`sync.*` metrics) and emits the
/// bootstrap spans.
void record_join(metrics::Registry& m, const sync::SyncReport& r) {
  m.counter("sync.ranges_committed").inc(r.ranges_committed);
  m.counter("sync.ranges_retried").inc(r.ranges_retried);
  m.counter("sync.bodies_committed").inc(r.bodies_committed);
  if (r.complete) {
    m.counter("sync.joins_completed").inc();
    obs::TraceSink::global().record_sim("bootstrap/join",
                                        static_cast<double>(r.time_to_synced_us));
    obs::TraceSink::global().record_sim(
        "bootstrap/fetch", static_cast<double>(r.time_to_synced_us - r.frontier_us));
  }
  m.distribution("sync.time_to_synced_us").add(static_cast<double>(r.time_to_synced_us));
  for (const sync::PeerBytes& p : r.by_peer)
    m.distribution("sync.bytes_per_peer").add(static_cast<double>(p.bytes));
}

}  // namespace

JoinReport drive_join(FleetRuntime& rt, SyncPeer& joiner, const sync::SyncConfig& cfg,
                      const std::vector<sim::NodeId>& candidates) {
  sync::SyncCheckpoint checkpoint;
  JoinReport report;
  bool done = false;
  const sim::NodeId id = joiner.id();

  std::function<void(const sync::SyncReport&)> on_done = [&](const sync::SyncReport& r) {
    done = true;
    report.sync = r;
  };

  // Crash/resume wiring: a FaultPlan crash on the joiner drops its session
  // (outstanding timers become inert); the restart opens a fresh one over
  // the same checkpoint. Peers flipping state are the session's own
  // problem — per-range timeouts reassign their work.
  rt.set_status_observer([&](sim::NodeId flipped, bool online) {
    if (flipped != id || done) return;
    if (!online) {
      joiner.abandon_sync();
      return;
    }
    if (!checkpoint.complete) {
      checkpoint.resume_count += 1;
      rt.metrics().counter("sync.resumes").inc();
      joiner.start_streaming_sync(cfg, &checkpoint, candidates, on_done);
    }
  });

  const sim::SimTime started = rt.simulator().now();
  joiner.start_streaming_sync(cfg, &checkpoint, candidates, on_done);
  while (!done && rt.simulator().now() - started < kDriveCapUs) rt.run_for(kDriveStepUs);
  rt.set_status_observer(nullptr);
  record_join(rt.metrics(), report.sync);

  report.protocol = true;
  report.complete = report.sync.complete;
  report.joiner = id;
  report.bodies_fetched = report.sync.bodies_committed;
  report.elapsed_us = report.sync.time_to_synced_us;
  report.bytes_downloaded = rt.network().traffic(id).bytes_received;
  return report;
}

}  // namespace ici::fleet
