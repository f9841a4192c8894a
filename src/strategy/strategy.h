// core::Strategy — one interface over the four storage strategies the paper
// compares (ICIStrategy, full replication, RapidChain committees, pruned
// full replication), so experiment binaries iterate a registry instead of
// copy-pasting per-strategy rig blocks.
//
//   for (const std::string_view name : strategy_names()) {
//     auto s = make_strategy(name, cfg);
//     s->init(genesis);
//     s->preload(chain);            // or ingest(block) for live runs
//     report(s->storage(), s->availability());
//   }
//
// Contract: with faults disabled and matching configuration, every adapter
// produces sim metrics bit-identical to driving the underlying network
// facade directly (the adapters add no RNG draws and no extra events).
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "chain/chain.h"
#include "fleet/sync_peer.h"
#include "ici/retrieval.h"
#include "metrics/registry.h"
#include "sim/faults.h"
#include "storage/backend.h"
#include "storage/storage_meter.h"

namespace ici::core {

/// Union of the per-strategy construction knobs. Each adapter reads the
/// fields that apply to it and ignores the rest; defaults mirror the
/// underlying facade defaults so an unconfigured field changes nothing.
struct StrategyConfig {
  std::size_t node_count = 64;
  /// Clusters (ICI) or committees (RapidChain). Ignored by fullrep/pruned.
  std::size_t groups = 8;
  /// Intra-cluster replication r (ICI only).
  std::size_t replication = 1;
  /// Recent-body window (pruned only).
  std::size_t pruned_window = 128;
  /// Full stateful validation at every node (fullrep only; storage-only
  /// experiments disable it to skip the N UTXO copies).
  bool fullrep_validate = true;
  /// Topology seed (node coordinates / peer graphs).
  std::uint64_t topology_seed = 1;
  /// Clustering/placement seed (ICI only).
  std::uint64_t placement_seed = 1;
  /// Retry-with-backoff passes for ICI fetches (E20 fault runs).
  std::size_t fetch_retry_rounds = 0;
  /// ICI repair may restore cluster-lost blocks from other clusters.
  bool cross_cluster_repair = false;
  /// Body-persistence backend per node (--store / --io-write-us /
  /// --io-read-us). Applies to the simulated strategies (ici, fullrep,
  /// rapidchain); pruned's closed-form model has no per-node backend.
  StoreConfig store;
};

/// Per-run message traffic totals (sum over all nodes).
struct StrategyTraffic {
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_sent = 0;
};

/// Result of joining a fresh node through the strategy's bootstrap path;
/// JoinReport::protocol is false for pruned's closed-form accounting (no
/// simulated network, so its download cost is computed, not measured).
using JoinReport = fleet::JoinReport;

class Strategy {
 public:
  virtual ~Strategy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Builds the network and installs the genesis block. Call exactly once,
  /// before any other method.
  virtual void init(const Block& genesis) = 0;

  /// Message-accurate ingest of one new block (disseminate + settle).
  /// Returns the dissemination latency in µs (0 if it never completed).
  virtual sim::SimTime ingest(const Block& block) = 0;

  /// Static preload fast path: installs blocks 1..tip with no traffic.
  virtual void preload(const Chain& chain) = 0;

  /// Runs the simulation until quiescent (no-op for static strategies).
  virtual void settle() {}

  /// Advances the simulation by `us` of simulated time (events may remain).
  virtual void run_for(sim::SimTime us) { (void)us; }

  /// Installs a fault injector over the strategy's network. Static
  /// strategies ignore it (documented per adapter).
  virtual void start_faults(const sim::FaultPlan& plan) { (void)plan; }

  /// Starts the strategy's background repair process, if it has one, over
  /// the sim-time window [now, until_us].
  virtual void start_repair(sim::SimTime interval_us, sim::SimTime until_us) {
    (void)interval_us;
    (void)until_us;
  }

  /// Per-node storage distribution (bodies + headers as the strategy
  /// persists them).
  [[nodiscard]] virtual StorageSnapshot storage() const = 0;

  /// Cumulative message traffic (0 for static strategies).
  [[nodiscard]] virtual StrategyTraffic traffic() const { return {}; }
  virtual void reset_traffic() {}

  /// Fraction of committed blocks a client could fetch from SOME currently
  /// online holder (network-wide serveability).
  [[nodiscard]] virtual double availability() const = 0;

  /// Stricter locality metric where it exists (ICI: every cluster can serve
  /// the block). Defaults to availability().
  [[nodiscard]] virtual double cluster_availability() const { return availability(); }

  /// The strategy's metrics registry (repair/fault counters), if any.
  [[nodiscard]] virtual metrics::Registry* metrics_registry() { return nullptr; }

  /// Summed storage-backend event tallies across the fleet (store.* —
  /// docs/STORAGE.md). All-zero for strategies without per-node backends
  /// (pruned's closed-form model) and for mem-backed runs that never read.
  [[nodiscard]] virtual StoreCounters store_counters() const { return {}; }

  /// Joins a fresh node at `coord` through the strategy's bootstrap path —
  /// the streaming bulk-sync protocol for the simulated strategies, a
  /// closed-form byte count for pruned (JoinReport::protocol distinguishes
  /// the two).
  [[nodiscard]] virtual JoinReport bootstrap_join(sim::Coord coord,
                                                  const sync::SyncConfig& cfg) = 0;

  /// Random historical fetches through the strategy's retrieval path.
  /// Strategies without a fetch protocol return nullopt.
  virtual std::optional<RetrievalStats> probe_retrieval(std::size_t count,
                                                        std::uint64_t seed) {
    (void)count;
    (void)seed;
    return std::nullopt;
  }
};

/// Registry order is the presentation order used by the experiment tables:
/// fullrep, rapidchain, ici, pruned.
[[nodiscard]] std::vector<std::string_view> strategy_names();

/// Builds a strategy by registry name; throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] std::unique_ptr<Strategy> make_strategy(std::string_view name,
                                                      const StrategyConfig& cfg);

}  // namespace ici::core
