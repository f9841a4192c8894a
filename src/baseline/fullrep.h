// Full-replication baseline (Bitcoin-style): every node stores every block,
// validates every transaction, and learns about new blocks through
// INV/GETDATA gossip over a random peer graph.
//
// This is the "blockchain is hard to scale" strawman the paper's
// introduction motivates: per-node storage equals the whole ledger, and a
// disseminated block crosses every link roughly once (plus INV chatter).
#pragma once

#include <memory>
#include <unordered_set>

#include "chain/chain.h"
#include "chain/validator.h"
#include "common/arena.h"
#include "common/stats.h"
#include "fleet/sync_peer.h"

namespace ici::baseline {

struct FullRepConfig {
  std::size_t node_count = 64;
  /// Outbound peers per node (graph is used bidirectionally).
  std::size_t peer_degree = 8;
  /// Full stateful validation at every node. Disable for storage-only
  /// experiments at large N (saves the per-node UTXO copies).
  bool validate = true;
  sim::NetworkConfig net;
  std::uint64_t seed = 1;
  /// Event shards for the simulator; contiguous id ranges share a lane
  /// (there are no clusters here). 0 = sim::default_shards() (--shards).
  std::size_t shards = 0;
  /// Serve-side bulk-sync rate limit in bytes/s of sim time; 0 = off.
  double sync_serve_rate_bps = 0.0;
  /// Body-persistence backend per node (--store); mem changes nothing.
  StoreConfig store;
};

// -- wire messages ----------------------------------------------------------

struct FullRepMessage : sim::MessageBase {};

struct InvMsg final : FullRepMessage {
  Hash256 hash;
  [[nodiscard]] std::size_t wire_size() const override { return 32; }
  [[nodiscard]] const char* type_name() const override { return "Inv"; }
};

struct GetDataMsg final : FullRepMessage {
  Hash256 hash;
  [[nodiscard]] std::size_t wire_size() const override { return 32; }
  [[nodiscard]] const char* type_name() const override { return "GetData"; }
};

struct GossipBlockMsg final : FullRepMessage {
  std::shared_ptr<const Block> block;
  [[nodiscard]] std::size_t wire_size() const override { return block->serialized_size(); }
  [[nodiscard]] const char* type_name() const override { return "GossipBlock"; }
};

// -- network ------------------------------------------------------------------

class FullRepNetwork;

class FullRepNode final : public sim::INode, public fleet::SyncPeer {
 public:
  FullRepNode(FullRepNetwork& ctx, sim::NodeId id);

  void on_message(sim::NodeId from, const sim::MessagePtr& msg) override;

  /// Proposer path: adopt the block locally and start gossiping it.
  void inject_block(std::shared_ptr<const Block> block);

  [[nodiscard]] BlockStore& store() { return store_; }
  [[nodiscard]] const BlockStore& store() const { return store_; }
  [[nodiscard]] const UtxoSet& utxo() const { return utxo_; }

  void seed_genesis(std::shared_ptr<const Block> genesis);

 private:
  void accept_block(std::shared_ptr<const Block> block, sim::NodeId from);
  void announce(const Hash256& hash, sim::NodeId except);

  // -- streaming sync: the strategy-specific BulkPullSession::Env hooks ----
  [[nodiscard]] bool sync_linked_headers() const override { return true; }
  [[nodiscard]] sync::PullMode sync_range_mode() const override {
    return sync::PullMode::kHeadersAndBodies;
  }
  [[nodiscard]] bool sync_coded() const override { return false; }
  void sync_commit_header(const BlockHeader& header, const Hash256& hash) override;
  [[nodiscard]] bool sync_wants_body(const Hash256&, std::uint64_t) override {
    return true;  // full replication wants every body
  }
  void sync_commit_body(const std::shared_ptr<const Block>& block) override;
  [[nodiscard]] std::vector<sim::NodeId> sync_body_candidates(
      const Hash256& hash, std::uint64_t height) override;
  void sync_fetch_assigned_shard(
      const Hash256&, std::uint64_t,
      std::function<void(std::shared_ptr<const Block>)> done) override {
    if (done) done(nullptr);  // full replication never codes
  }

  FullRepNetwork& ctx_;
  sim::NodeId id_;
  BlockStore store_;
  UtxoSet utxo_;
  Validator validator_;
  std::unordered_set<Hash256, Hash256Hasher> requested_;
};

class FullRepNetwork {
 public:
  explicit FullRepNetwork(FullRepConfig cfg);

  FullRepNetwork(const FullRepNetwork&) = delete;
  FullRepNetwork& operator=(const FullRepNetwork&) = delete;

  void init_with_genesis(const Block& genesis);

  /// Gossips `block` from a rotating proposer and runs to quiescence.
  /// Returns the time until the last online node stored the block.
  sim::SimTime disseminate_and_settle(const Block& block);

  /// Statically installs a chain on every node (storage experiments).
  void preload_chain(const Chain& chain);

  /// Adds a fresh node linked to its peer_degree nearest nodes and streams
  /// the full chain from them via the bulk-sync protocol.
  [[nodiscard]] fleet::JoinReport bootstrap(sim::Coord coord, const sync::SyncConfig& cfg = {});

  /// Runs the simulator until quiescent / for `us` of simulated time, then
  /// refreshes the mirrored counters.
  void settle() { rt_.settle(); }
  void run_for(sim::SimTime us) { rt_.run_for(us); }

  /// Installs a fault injector (crashes/drops/partitions) over the gossip
  /// network. Full replication has no repair protocol — offline nodes just
  /// stop serving. Call at most once.
  void start_faults(const sim::FaultPlan& plan) { rt_.start_faults(plan); }
  [[nodiscard]] const sim::FaultInjector* faults() const { return rt_.faults(); }

  [[nodiscard]] fleet::FleetRuntime& runtime() { return rt_; }
  [[nodiscard]] sim::Simulator& simulator() { return rt_.simulator(); }
  [[nodiscard]] sim::Network& network() { return rt_.network(); }
  [[nodiscard]] metrics::Registry& metrics() { return rt_.metrics(); }
  [[nodiscard]] const FullRepConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] FullRepNode& node(sim::NodeId id) { return nodes_.at(id); }
  [[nodiscard]] const std::vector<sim::NodeId>& peers(sim::NodeId id) const;
  [[nodiscard]] const std::vector<const BlockStore*>& stores() const { return rt_.stores(); }

  /// Called by nodes when they store a disseminated block (through the
  /// runtime's deferred log, so shard-count-invariant).
  void note_stored(const Hash256& hash);

 private:
  void add_node(sim::NodeId id, sim::Coord coord);

  FullRepConfig cfg_;
  fleet::FleetRuntime rt_;  // before nodes_: see fleet/runtime.h
  ObjectArena<FullRepNode> nodes_;
  std::vector<std::vector<sim::NodeId>> peers_;
  std::vector<sim::Coord> coords_;

  struct Spread {
    sim::SimTime started = 0;
    std::size_t holders = 0;
    sim::SimTime finished = 0;
  };
  std::unordered_map<Hash256, Spread, Hash256Hasher> spreads_;
  std::uint64_t proposer_cursor_ = 0;
  bool genesis_done_ = false;
};

}  // namespace ici::baseline
