// IciNetwork: builds and owns a whole ICIStrategy deployment — topology,
// clustering, the simulated network, one IciNode per participant — and gives
// experiments a small driving API:
//
//   IciNetwork net(cfg);
//   net.init_with_genesis(genesis);
//   net.disseminate_and_settle(block);   // message-accurate dissemination
//   net.preload_chain(chain);            // fast path for storage-only runs
//
// Shared state (ClusterDirectory, assignment) models the membership service
// the deployed system would maintain per epoch.
#pragma once

#include <memory>

#include "chain/chain.h"
#include "chain/validator.h"
#include "cluster/assignment.h"
#include "cluster/directory.h"
#include "cluster/repair.h"
#include "common/arena.h"
#include "erasure/rs.h"
#include "fleet/runtime.h"
#include "ici/node.h"
#include "storage/storage_meter.h"

namespace ici::core {

struct IciNetworkConfig {
  std::size_t node_count = 64;
  IciConfig ici;
  sim::NetworkConfig net;
  std::uint64_t seed = 1;
  /// Event shards (parallel lanes) for the simulator; whole clusters map to
  /// one lane (cluster % shards). 0 means "use sim::default_shards()" (the
  /// --shards flag); 1 runs the classic single-queue engine.
  std::size_t shards = 0;
  /// Serve-side bulk-sync rate limit per (server, peer) pair in bytes per
  /// second of sim time; 0 disables throttling (--sync-serve-rate).
  double sync_serve_rate_bps = 0.0;
  /// Body-persistence backend per node (--store / --io-write-us /
  /// --io-read-us). The default mem backend changes nothing.
  StoreConfig store;
};

class IciNetwork {
 public:
  explicit IciNetwork(IciNetworkConfig cfg);
  ~IciNetwork();

  IciNetwork(const IciNetwork&) = delete;
  IciNetwork& operator=(const IciNetwork&) = delete;

  /// Installs the genesis block on every node (headers + assigned bodies +
  /// UTXO shards). Must be called exactly once before dissemination.
  void init_with_genesis(const Block& genesis);

  /// Ships `block` from a rotating proposer to every cluster head and runs
  /// the simulation until quiescent. Returns the sim time from proposal to
  /// the moment the last cluster committed (or the settle time on failure).
  sim::SimTime disseminate_and_settle(const Block& block);

  /// Ships `block` without waiting (pipelined dissemination).
  void disseminate(const Block& block);

  /// Runs the simulator until no events remain, then refreshes the "sim.*"
  /// event-core counters in metrics(). Drops the owner table (utxo_owner)
  /// and the verdict table (tx_stateless_ok).
  void settle();

  /// Statically installs an already-built chain (headers everywhere, bodies
  /// on assigned storers, shards updated) with no message traffic. Storage
  /// experiments use this to reach long chains quickly. Skips the genesis
  /// (init_with_genesis covers it). `build_tx_index` also installs the
  /// txid→block index live networks learn from commit deltas (costs
  /// O(txs·k) hashing, so it is opt-in).
  void preload_chain(const Chain& chain, bool build_tx_index = false);

  /// Installs a fault injector (crashes, drops, duplicates, partitions) over
  /// the simulated network. Crash/restart transitions update the directory
  /// and trigger the repair protocol (actual copy traffic); churn runs are a
  /// FaultPlan crash session. Call at most once, before running.
  void start_faults(const sim::FaultPlan& plan) { rt_.start_faults(plan); }
  [[nodiscard]] const sim::FaultInjector* faults() const { return rt_.faults(); }

  /// Starts a background repair daemon: every `interval_us` of sim time a
  /// full repair pass runs over every cluster, re-replicating slices lost to
  /// crashes. Bounded by `until_us` so settle()'s drain terminates.
  void start_repair_daemon(sim::SimTime interval_us, sim::SimTime until_us);

  /// Runs the simulator for `us` of simulated time (events may remain) and
  /// refreshes the mirrored sim/fault counters. Fault experiments advance in
  /// windows like this to sample availability over time.
  void run_for(sim::SimTime us) { rt_.run_for(us); }

  /// Availability snapshot: fraction of (cluster, committed block) pairs
  /// with at least one online holder.
  [[nodiscard]] double availability() const;

  /// Network-wide availability: fraction of committed blocks servable by
  /// SOME online holder anywhere (what cross-cluster fallback delivers —
  /// the network keeps one copy per cluster).
  [[nodiscard]] double network_availability() const;

  /// Runs a repair pass for a cluster now (also invoked on fault flips).
  void repair_cluster(std::size_t cluster);

  // -- accessors used by IciNode and the experiment harnesses ------------
  [[nodiscard]] fleet::FleetRuntime& runtime() { return rt_; }
  [[nodiscard]] sim::Simulator& simulator() { return rt_.simulator(); }
  [[nodiscard]] sim::Network& network() { return rt_.network(); }
  [[nodiscard]] cluster::ClusterDirectory& directory() { return *directory_; }
  [[nodiscard]] const IciConfig& config() const { return cfg_.ici; }
  [[nodiscard]] metrics::Registry& metrics() { return rt_.metrics(); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] IciNode& node(cluster::NodeId id) { return nodes_.at(id); }
  [[nodiscard]] const IciNode& node(cluster::NodeId id) const { return nodes_.at(id); }

  /// Online storers responsible for a block within `cluster` (assignment
  /// over the full membership; offline assignees simply cannot serve).
  [[nodiscard]] std::vector<cluster::NodeId> storers_of(const Hash256& hash,
                                                        std::uint64_t height,
                                                        std::size_t cluster,
                                                        bool online_only) const;

  /// UTXO-shard owner of an outpoint within `cluster` (stable: rendezvous
  /// over the full membership). Outpoints of the blocks disseminated since
  /// the last settle() come from the owner table; any other is ranked now.
  [[nodiscard]] cluster::NodeId utxo_owner(const OutPoint& op, std::size_t cluster) const;

  /// Validator::check_tx_stateless's verdict on `tx`, from the network's one
  /// default-config validator. Txs of the blocks disseminated since the last
  /// settle() come from the verdict table; any other is checked now.
  [[nodiscard]] bool tx_stateless_ok(const Transaction& tx) const;

  /// Online peers worth asking for a block body, rendezvous-ranked, with
  /// `exclude` (usually the asker) removed. Goes a couple of ranks past the
  /// replication factor so fetches survive holder churn and joins.
  [[nodiscard]] std::vector<cluster::NodeId> fetch_candidates(const Hash256& hash,
                                                              std::uint64_t height,
                                                              std::size_t cluster,
                                                              cluster::NodeId exclude) const;

  /// Record of blocks committed anywhere (hash, height) in commit order —
  /// ground truth for repair and availability scans.
  struct CommittedBlock {
    Hash256 hash;
    std::uint64_t height = 0;
    std::size_t size_bytes = 0;
  };
  [[nodiscard]] const std::vector<CommittedBlock>& committed() const { return committed_; }

  /// Called by heads when their cluster commits. Tracks per-block commit
  /// coverage for dissemination latency measurements, through the runtime's
  /// deferred log (shard-count-invariant).
  void note_commit(const Block& block);

  /// Sim time when all clusters had committed `hash` (0 if not yet).
  [[nodiscard]] sim::SimTime full_commit_time(const Hash256& hash) const;

  /// Per-node storage snapshot inputs (bodies + headers only).
  [[nodiscard]] const std::vector<const BlockStore*>& stores() const { return rt_.stores(); }

  /// Fleet storage snapshot including erasure shards (what a node really
  /// persists). Prefer this over StorageMeter when coding may be on.
  [[nodiscard]] StorageSnapshot storage_snapshot() const;

  // -- coded mode ---------------------------------------------------------
  /// True when blocks are stored as Reed-Solomon shards instead of copies.
  [[nodiscard]] bool coded() const { return cfg_.ici.erasure_data > 0; }
  /// The codec (only valid when coded()).
  [[nodiscard]] const erasure::ReedSolomon& codec() const { return *codec_; }
  /// The d+p shard holders of a block within `cluster`, ranked over the
  /// full membership; vector position == shard index.
  [[nodiscard]] std::vector<cluster::NodeId> shard_holders(const Hash256& hash,
                                                           std::uint64_t height,
                                                           std::size_t cluster) const;

  /// Adds a brand-new node (used by the bootstrap protocol); returns its id.
  /// The caller is responsible for running the join protocol.
  cluster::NodeId add_joiner(sim::Coord coord, std::size_t cluster);

  /// Marks a node byzantine/faulty for robustness experiments.
  void set_fault(cluster::NodeId id, FaultProfile profile) {
    nodes_.at(id).set_fault(profile);
  }

  // -- epoch reconfiguration ------------------------------------------------
  struct ReconfigReport {
    /// Nodes whose cluster assignment changed.
    std::size_t nodes_moved = 0;
    /// Block copies started to restore intra-cluster integrity.
    std::size_t copies_started = 0;
  };
  /// Re-clusters the network with a fresh epoch seed (same strategy, same
  /// k), then starts the block migrations every new cluster needs to regain
  /// the full ledger. Call only when the simulation is quiescent; run
  /// settle() afterwards and then prune_unassigned() to drop stale copies.
  /// Replication mode only (coded-mode reconfiguration is future work).
  ReconfigReport reconfigure(std::uint64_t epoch_seed);

  /// Drops bodies from nodes that are no longer assigned storers under the
  /// current clustering. Returns bytes freed. Run after migrations settle.
  std::uint64_t prune_unassigned();

 private:
  void add_node(const cluster::NodeInfo& info);
  /// Adds a row to the owner table for every outpoint `block` spends or
  /// creates that has none yet, ranked in one pass over the worker pool.
  void add_block_owners(const Block& block);
  /// Adds every tx of `block` to the verdict table, checked in one pass
  /// over the worker pool.
  void add_block_verdicts(const Block& block);
  /// Drops the owner and verdict tables.
  void drop_block_tables();
  /// out[i * (last - first) + (c - first)] = owner of keys[i] in cluster c,
  /// for c in [first, last), ranked over the worker pool.
  void rank_owners(const Hash256* keys, std::size_t n, std::size_t first, std::size_t last,
                   cluster::NodeId* out) const;
  void repair_cluster_coded(std::size_t cluster);
  /// Whether the online nodes among `holders` can serve `hash`: one holds
  /// the body, or (coded) they hold d distinct shard indices.
  [[nodiscard]] bool servable(const Hash256& hash,
                              const std::vector<cluster::NodeId>& holders) const;

  IciNetworkConfig cfg_;
  fleet::FleetRuntime rt_;  // before nodes_: see fleet/runtime.h
  std::vector<cluster::NodeInfo> infos_;
  std::unique_ptr<cluster::ClusterDirectory> directory_;
  /// Places bodies and shards; UTXO-shard ownership is its top-1 pick
  /// (cluster::rendezvous_top1). Fleet nodes all have capacity 1.0, so
  /// capacity weighting would not move a single score.
  cluster::RendezvousAssigner assigner_;
  ObjectArena<IciNode> nodes_;
  /// Owner table: owner_rows_[op] is op's row in owners_, which holds one
  /// owner per cluster. Written only between event runs, by disseminate()
  /// on the thread that calls the simulator, and read by the handlers of
  /// every lane; dropped by settle(), add_joiner() and reconfigure(), so it
  /// never outlives the membership it was ranked over.
  std::unordered_map<OutPoint, std::size_t, OutPointHasher> owner_rows_;
  std::vector<cluster::NodeId> owners_;
  /// Verdict table: txid → check_tx_stateless verdict, with the owner
  /// table's lifetime. A txid commits to every byte the verdict reads, so a
  /// tampered tx can never find another tx's verdict here.
  std::unordered_map<Hash256, bool, Hash256Hasher> verdicts_;
  Validator validator_;
  std::unique_ptr<cluster::RepairDaemon> repair_daemon_;
  std::unique_ptr<erasure::ReedSolomon> codec_;

  std::vector<CommittedBlock> committed_;
  std::unordered_map<Hash256, std::size_t, Hash256Hasher> committed_index_;
  struct CommitProgress {
    std::size_t clusters_committed = 0;
    sim::SimTime proposed_at = 0;
    sim::SimTime fully_committed_at = 0;
  };
  std::unordered_map<Hash256, CommitProgress, Hash256Hasher> progress_;
  std::uint64_t proposer_cursor_ = 0;
  bool genesis_done_ = false;
  std::uint64_t trace_clock_token_ = 0;
};

}  // namespace ici::core
