#include "fleet/runtime.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "metrics/sim_metrics.h"
#include "sim/lbts.h"
#include "sim/shard.h"
#include "storage/store_metrics.h"

namespace ici::fleet {

FleetRuntime::FleetRuntime(const sim::NetworkConfig& net, std::size_t shards,
                           double sync_serve_rate_bps, const StoreConfig& store)
    : shards_(shards == 0 ? sim::default_shards() : shards),
      net_(sim_, net),
      store_runtime_(store) {
  // Lanes are configured before any node registers (the simulator requires
  // an empty calendar).
  if (shards_ > 1) {
    sim_.configure_shards(shards_, sim::lookahead_from(net));
    sim_.set_barrier_hook([this] { flush_deferred(); });
    deferred_.resize(shards_);
  }
  if (sync_serve_rate_bps > 0.0)
    serve_throttle_ = std::make_unique<sync::ServeThrottle>(sync_serve_rate_bps);
}

void FleetRuntime::reserve(std::size_t n) {
  net_.reserve_nodes(n);
  fleet_tally_.ensure_size(n);
  stores_.reserve(n);
}

void FleetRuntime::add_node(sim::NodeId id, sim::INode& node, BlockStore& store,
                            sim::Coord coord, std::uint32_t lane) {
  if (net_.add_node(&node, coord) != id)
    throw std::logic_error("FleetRuntime: node id mismatch during registration");
  fleet_tally_.ensure_size(static_cast<std::size_t>(id) + 1);
  stores_.push_back(&store);
  if (shards_ > 1) sim_.set_node_lane(id, lane);
  install_backend(id, store);
}

void FleetRuntime::install_backend(sim::NodeId id, BlockStore& store) {
  std::unique_ptr<StorageBackend> backend = store_runtime_.make_backend(id);
  if (!backend) return;  // mem: the store's built-in backend is already right
  IoEnv env;
  env.now = [this] { return sim_.now(); };
  // Retirement events run on the owning node's lane: lane-local during
  // parallel windows, so IO completions stay shard-invariant.
  env.schedule_at = [this, id](std::uint64_t at, std::function<void()> fn) {
    sim_.schedule_for(id, at, std::move(fn));
  };
  backend->set_io_env(std::move(env));
  store.set_backend(std::move(backend));
}

void FleetRuntime::settle() {
  sim_.run();
  sync_counters();
}

void FleetRuntime::run_for(sim::SimTime us) {
  sim_.run_until(sim_.now() + us);
  sync_counters();
}

void FleetRuntime::sync_counters() {
  metrics::sync_sim_counters(metrics_, sim_);
  if (faults_) metrics::sync_fault_counters(metrics_, faults_->stats());
  if (store_runtime_.disk()) sync_store_counters(metrics_, stores_);
}

void FleetRuntime::flush_deferred() {
  std::vector<Deferred> all;
  for (auto& lane : deferred_) {
    std::move(lane.begin(), lane.end(), std::back_inserter(all));
    lane.clear();
  }
  std::sort(all.begin(), all.end(), [](const Deferred& a, const Deferred& b) {
    return a.at != b.at ? a.at < b.at : a.key < b.key;
  });
  for (const Deferred& d : all) d.apply(d.at);
}

void FleetRuntime::start_faults(const sim::FaultPlan& plan) {
  if (faults_) throw std::logic_error("start_faults called twice");
  faults_ = std::make_unique<sim::FaultInjector>(net_, plan);
  std::vector<sim::NodeId> all(net_.node_count());
  std::iota(all.begin(), all.end(), sim::NodeId{0});
  faults_->start(all, [this](sim::NodeId id, bool online) {
    metrics_.counter(online ? "churn.up" : "churn.down").inc();
    if (flip_handler_) flip_handler_(id, online);
    // Observers (e.g. the join driver resuming a crashed joiner) run last,
    // after the facade's state and repair reflect the flip.
    if (status_observer_) status_observer_(id, online);
  });
}

}  // namespace ici::fleet
