// FleetRuntime: the simulated-fleet plumbing every network facade
// (core::IciNetwork, baseline::FullRepNetwork, baseline::RapidChainNetwork)
// holds as a member. It owns the event engine and network, the fleet-shared
// storage state, fault injection, the metrics registry, serve-side sync
// throttling and the barrier-ordered deferred log. The facade keeps only its
// strategy: placement, proposer/leader rotation, repair and dissemination.
//
//   FleetRuntime rt(cfg.net, cfg.shards, cfg.sync_serve_rate_bps, cfg.store);
//   rt.reserve(n);
//   Node& node = nodes_.emplace_back(*this, id);   // binds rt's index/tally
//   rt.add_node(id, node, node.store(), coord, lane);
//
// Lifetime: nodes bind to the runtime's HeaderIndex, FleetTally and
// StoreRuntime (their backends write under its on-disk root), so a facade
// declares its node arena AFTER its FleetRuntime member and the nodes die
// first. Inside the runtime the FaultInjector is declared after the Network,
// so it uninstalls its send hook before the network dies.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "metrics/registry.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "storage/block_store.h"
#include "storage/fleet_tally.h"
#include "storage/header_index.h"
#include "storage/store_runtime.h"
#include "sync/serve.h"

namespace ici::fleet {

class FleetRuntime {
 public:
  /// Online/offline flip callback (fault injection).
  using StatusFn = std::function<void(sim::NodeId, bool online)>;

  /// `shards` 0 means sim::default_shards() (the --shards flag); above 1 the
  /// simulator runs parallel event lanes. `sync_serve_rate_bps` 0 disables
  /// serve-side throttling (--sync-serve-rate).
  FleetRuntime(const sim::NetworkConfig& net, std::size_t shards, double sync_serve_rate_bps,
               const StoreConfig& store);

  FleetRuntime(const FleetRuntime&) = delete;
  FleetRuntime& operator=(const FleetRuntime&) = delete;

  /// Pre-sizes the network slot table and tally rows for `n` nodes.
  void reserve(std::size_t n);

  /// Registers node `id`, which must be the next dense id: a network slot at
  /// `coord`, event lane `lane` (ignored when unsharded) and the storage
  /// backend for `store`. Call right after constructing the node.
  void add_node(sim::NodeId id, sim::INode& node, BlockStore& store, sim::Coord coord,
                std::uint32_t lane);

  /// Every node's store, by id (bodies + headers).
  [[nodiscard]] const std::vector<const BlockStore*>& stores() const { return stores_; }
  /// Resolved event-lane count (>= 1).
  [[nodiscard]] std::size_t shards() const { return shards_; }

  /// Runs until no events remain, then refreshes the mirrored sim, fault and
  /// store counters in metrics().
  void settle();
  /// Runs `us` of simulated time (events may remain), then refreshes the
  /// mirrored counters.
  void run_for(sim::SimTime us);

  /// Deferred log for fleet-wide bookkeeping that handlers on concurrent
  /// lanes would race on. `apply(at)` carries the record and the facade's
  /// reaction to it. From a sequential context it runs now with at = now();
  /// inside a parallel window it is buffered per lane and run at the next
  /// barrier in (at, key) order — the order the single-queue engine would
  /// have used — so the bookkeeping is identical for every shard count.
  template <typename Apply>
  void defer(Apply&& apply) {
    if (!sim_.in_parallel_phase()) {
      apply(sim_.now());
      return;
    }
    const sim::Simulator::EventRef ev = sim_.current_event();
    deferred_[sim_.current_lane()].push_back({ev.at, ev.key, std::forward<Apply>(apply)});
  }

  /// The facade's reaction to a fault flip (ICI updates its directory and
  /// repairs the cluster). Runs after the churn.up/down counter moved.
  void set_flip_handler(StatusFn fn) { flip_handler_ = std::move(fn); }
  /// Observer fired after the flip handler; the join driver uses it to
  /// abandon a crashed joiner's session and resume it on restart. nullptr
  /// removes it.
  void set_status_observer(StatusFn fn) { status_observer_ = std::move(fn); }
  /// Installs a fault injector over every registered node (crashes, drops,
  /// duplicates, partitions). Call at most once.
  void start_faults(const sim::FaultPlan& plan);
  [[nodiscard]] const sim::FaultInjector* faults() const { return faults_.get(); }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] sim::Network& network() { return net_; }
  [[nodiscard]] const sim::Network& network() const { return net_; }
  [[nodiscard]] metrics::Registry& metrics() { return metrics_; }
  /// The fleet-shared header table every node's BlockStore interns into.
  [[nodiscard]] const std::shared_ptr<HeaderIndex>& header_index() const {
    return header_index_;
  }
  /// Hot per-node storage scalars, contiguous by node id (fleet_tally.h).
  [[nodiscard]] FleetTally& fleet_tally() { return fleet_tally_; }
  [[nodiscard]] const FleetTally& fleet_tally() const { return fleet_tally_; }
  /// Serve-side sync throttle, or nullptr when --sync-serve-rate is 0.
  [[nodiscard]] sync::ServeThrottle* serve_throttle() { return serve_throttle_.get(); }

 private:
  void install_backend(sim::NodeId id, BlockStore& store);
  void sync_counters();
  void flush_deferred();

  std::size_t shards_;
  sim::Simulator sim_;
  sim::Network net_;
  std::shared_ptr<HeaderIndex> header_index_ = std::make_shared<HeaderIndex>();
  FleetTally fleet_tally_;
  StoreRuntime store_runtime_;
  std::unique_ptr<sync::ServeThrottle> serve_throttle_;
  metrics::Registry metrics_;
  std::unique_ptr<sim::FaultInjector> faults_;
  std::vector<const BlockStore*> stores_;

  struct Deferred {
    sim::SimTime at = 0;
    std::uint64_t key = 0;
    std::function<void(sim::SimTime)> apply;
  };
  std::vector<std::vector<Deferred>> deferred_;  // one log per lane
  StatusFn flip_handler_;
  StatusFn status_observer_;
};

}  // namespace ici::fleet
