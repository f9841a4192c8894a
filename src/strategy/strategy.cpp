#include "strategy/strategy.h"

#include <numeric>
#include <stdexcept>

#include "baseline/fullrep.h"
#include "baseline/pruned.h"
#include "baseline/rapidchain.h"
#include "ici/bootstrap.h"
#include "ici/network.h"
#include "storage/store_metrics.h"

namespace ici::core {

namespace {

// The calls every simulated strategy forwards to its network's fleet
// runtime (fleet/runtime.h). Adapters point rt_ at their network's runtime.
class SimulatedStrategy : public Strategy {
 public:
  void settle() override { rt_->settle(); }
  void run_for(sim::SimTime us) override { rt_->run_for(us); }
  void start_faults(const sim::FaultPlan& plan) override { rt_->start_faults(plan); }

  [[nodiscard]] StorageSnapshot storage() const override {
    return StorageMeter::snapshot(rt_->stores());
  }

  [[nodiscard]] StrategyTraffic traffic() const override {
    const sim::NodeTraffic t = rt_->network().total_traffic();
    return {t.bytes_sent, t.msgs_sent};
  }
  void reset_traffic() override { rt_->network().reset_traffic(); }

  [[nodiscard]] metrics::Registry* metrics_registry() override { return &rt_->metrics(); }

  [[nodiscard]] StoreCounters store_counters() const override {
    return sum_store_counters(rt_->stores());
  }

 protected:
  fleet::FleetRuntime* rt_ = nullptr;
};

// -- ICIStrategy --------------------------------------------------------------

class IciStrategy final : public SimulatedStrategy {
 public:
  explicit IciStrategy(const StrategyConfig& cfg) {
    IciNetworkConfig ncfg;
    ncfg.node_count = cfg.node_count;
    ncfg.seed = cfg.topology_seed;
    ncfg.ici.cluster_count = cfg.groups;
    ncfg.ici.replication = cfg.replication;
    ncfg.ici.seed = cfg.placement_seed;
    ncfg.ici.fetch_retry_rounds = cfg.fetch_retry_rounds;
    ncfg.ici.cross_cluster_repair = cfg.cross_cluster_repair;
    ncfg.store = cfg.store;
    net_ = std::make_unique<IciNetwork>(ncfg);
    rt_ = &net_->runtime();
  }

  [[nodiscard]] std::string_view name() const override { return "ici"; }

  void init(const Block& genesis) override { net_->init_with_genesis(genesis); }

  sim::SimTime ingest(const Block& block) override {
    return net_->disseminate_and_settle(block);
  }

  void preload(const Chain& chain) override { net_->preload_chain(chain); }

  void start_repair(sim::SimTime interval_us, sim::SimTime until_us) override {
    net_->start_repair_daemon(interval_us, until_us);
  }

  [[nodiscard]] double availability() const override { return net_->network_availability(); }
  [[nodiscard]] double cluster_availability() const override { return net_->availability(); }

  [[nodiscard]] JoinReport bootstrap_join(sim::Coord coord,
                                          const sync::SyncConfig& cfg) override {
    return Bootstrapper::join(*net_, coord, cfg);
  }

  std::optional<RetrievalStats> probe_retrieval(std::size_t count,
                                                std::uint64_t seed) override {
    // With a fault injector installed the crash schedule keeps the event
    // queue populated forever, so the driver must advance in bounded steps
    // instead of settling to quiescence.
    if (net_->faults() != nullptr) {
      return RetrievalDriver::run(*net_, count, seed, /*step_us=*/1'000'000,
                                  /*max_steps=*/600);
    }
    return RetrievalDriver::run(*net_, count, seed);
  }

 private:
  std::unique_ptr<IciNetwork> net_;
};

// -- full replication and RapidChain ------------------------------------------

// The two baselines share ingest, preload and join; they differ in who holds
// a block, which is all availability() asks.
template <typename Net>
class BaselineStrategy : public SimulatedStrategy {
 public:
  void init(const Block& genesis) override {
    net_->init_with_genesis(genesis);
    committed_.push_back(genesis.hash());
  }

  sim::SimTime ingest(const Block& block) override {
    committed_.push_back(block.hash());
    return net_->disseminate_and_settle(block);
  }

  void preload(const Chain& chain) override {
    net_->preload_chain(chain);
    for (std::size_t h = 1; h < chain.blocks().size(); ++h) {
      committed_.push_back(chain.blocks()[h].hash());
    }
  }

  [[nodiscard]] JoinReport bootstrap_join(sim::Coord coord,
                                          const sync::SyncConfig& cfg) override {
    return net_->bootstrap(coord, cfg);
  }

 protected:
  explicit BaselineStrategy(std::unique_ptr<Net> net) : net_(std::move(net)) {
    rt_ = &net_->runtime();
  }

  /// Fraction of committed blocks some online node in `holders(hash)` stores.
  template <typename Holders>
  [[nodiscard]] double servable_fraction(Holders&& holders) const {
    if (committed_.empty()) return 1.0;
    std::size_t servable = 0;
    for (const Hash256& hash : committed_) {
      for (sim::NodeId id : holders(hash)) {
        if (net_->network().online(id) && net_->node(id).store().has_block(hash)) {
          ++servable;
          break;
        }
      }
    }
    return static_cast<double>(servable) / static_cast<double>(committed_.size());
  }

  std::unique_ptr<Net> net_;
  std::vector<Hash256> committed_;
};

baseline::FullRepConfig fullrep_config(const StrategyConfig& cfg) {
  baseline::FullRepConfig ncfg;
  ncfg.node_count = cfg.node_count;
  ncfg.validate = cfg.fullrep_validate;
  ncfg.seed = cfg.topology_seed;
  ncfg.store = cfg.store;
  return ncfg;
}

class FullRepStrategy final : public BaselineStrategy<baseline::FullRepNetwork> {
 public:
  explicit FullRepStrategy(const StrategyConfig& cfg)
      : BaselineStrategy(std::make_unique<baseline::FullRepNetwork>(fullrep_config(cfg))) {}

  [[nodiscard]] std::string_view name() const override { return "fullrep"; }

  [[nodiscard]] double availability() const override {
    std::vector<sim::NodeId> everyone(net_->node_count());
    std::iota(everyone.begin(), everyone.end(), sim::NodeId{0});
    return servable_fraction([&](const Hash256&) -> const auto& { return everyone; });
  }
};

baseline::RapidChainConfig rapidchain_config(const StrategyConfig& cfg) {
  baseline::RapidChainConfig ncfg;
  ncfg.node_count = cfg.node_count;
  ncfg.committee_count = cfg.groups;
  ncfg.seed = cfg.topology_seed;
  ncfg.store = cfg.store;
  return ncfg;
}

class RapidChainStrategy final : public BaselineStrategy<baseline::RapidChainNetwork> {
 public:
  explicit RapidChainStrategy(const StrategyConfig& cfg)
      : BaselineStrategy(std::make_unique<baseline::RapidChainNetwork>(rapidchain_config(cfg))) {}

  [[nodiscard]] std::string_view name() const override { return "rapidchain"; }

  [[nodiscard]] double availability() const override {
    return servable_fraction([this](const Hash256& hash) -> const auto& {
      return net_->committee_members(net_->committee_of_block(hash));
    });
  }
};

// -- pruned -------------------------------------------------------------------

// Static storage policy — no simulated network, so faults and run_for are
// no-ops. Availability is the policy's intrinsic loss: the fraction of
// committed bodies still inside the retention window (crashes cannot make
// it worse because every node keeps the same window, and cannot be repaired
// because pruned history is gone network-wide).
class PrunedStrategy final : public Strategy {
 public:
  explicit PrunedStrategy(const StrategyConfig& cfg)
      : node_count_(cfg.node_count) {
    baseline::PrunedConfig ncfg;
    ncfg.node_count = cfg.node_count;
    ncfg.window = cfg.pruned_window;
    net_ = std::make_unique<baseline::PrunedNetwork>(ncfg);
  }

  [[nodiscard]] std::string_view name() const override { return "pruned"; }

  void init(const Block& genesis) override {
    net_->apply(std::make_shared<const Block>(genesis));
    committed_.push_back(genesis.hash());
  }

  sim::SimTime ingest(const Block& block) override {
    net_->apply(std::make_shared<const Block>(block));
    committed_.push_back(block.hash());
    return 0;
  }

  void preload(const Chain& chain) override {
    for (std::size_t h = 1; h < chain.blocks().size(); ++h) {
      const Block& block = chain.blocks()[h];
      net_->apply(std::make_shared<const Block>(block));
      committed_.push_back(block.hash());
    }
  }

  [[nodiscard]] StorageSnapshot storage() const override {
    StorageSnapshot snap;
    const std::uint64_t per_node = net_->per_node_bytes();
    snap.node_count = node_count_;
    snap.total_bytes = per_node * node_count_;
    snap.mean_bytes = static_cast<double>(per_node);
    snap.max_bytes = static_cast<double>(per_node);
    snap.min_bytes = static_cast<double>(per_node);
    snap.cv = 0.0;
    return snap;
  }

  [[nodiscard]] double availability() const override {
    if (committed_.empty()) return 1.0;
    std::size_t servable = 0;
    for (const Hash256& hash : committed_) {
      if (net_->node().store().has_block(hash)) ++servable;
    }
    return static_cast<double>(servable) / static_cast<double>(committed_.size());
  }

  [[nodiscard]] JoinReport bootstrap_join(sim::Coord /*coord*/,
                                          const sync::SyncConfig& /*cfg*/) override {
    // No simulated network: a pruned joiner's download is the closed-form
    // headers + UTXO snapshot + windowed bodies (instant by construction).
    JoinReport out;
    out.protocol = false;
    out.complete = true;
    out.bytes_downloaded = net_->bootstrap_bytes();
    out.elapsed_us = 0;
    out.bodies_fetched = net_->node().store().block_count();
    return out;
  }

 private:
  std::size_t node_count_;
  std::unique_ptr<baseline::PrunedNetwork> net_;
  std::vector<Hash256> committed_;
};

}  // namespace

std::vector<std::string_view> strategy_names() {
  return {"fullrep", "rapidchain", "ici", "pruned"};
}

std::unique_ptr<Strategy> make_strategy(std::string_view name, const StrategyConfig& cfg) {
  if (name == "ici") return std::make_unique<IciStrategy>(cfg);
  if (name == "fullrep") return std::make_unique<FullRepStrategy>(cfg);
  if (name == "rapidchain") return std::make_unique<RapidChainStrategy>(cfg);
  if (name == "pruned") return std::make_unique<PrunedStrategy>(cfg);
  throw std::invalid_argument("unknown strategy: " + std::string(name));
}

}  // namespace ici::core
