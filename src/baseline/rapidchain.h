// RapidChain-style committee-sharding baseline (Zamani et al., CCS'18),
// modelled at storage/dissemination fidelity — the comparison target of the
// paper's headline claim ("ICIStrategy needs ~25% of the storage RapidChain
// does").
//
// Faithful parts:
//  * nodes are assigned to k committees by hash (uniform at random);
//  * each committee stores only its own shard of the ledger, but every
//    member replicates that shard in full — per-node storage ≈ D/k;
//  * blocks spread inside a committee by IDA-style chunked gossip: the
//    leader sends each member one distinct chunk, members flood chunks
//    until everyone can reconstruct.
//
// Simplified parts (documented in DESIGN.md): consensus (50-round BFT),
// cross-shard transaction routing, and epoch reconfiguration (Cuckoo rule)
// are out of scope — they do not change per-node storage or the per-block
// dissemination byte counts compared here. Sharding is block-granular
// (block → committee by block hash) rather than tx-granular.
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "chain/chain.h"
#include "common/arena.h"
#include "fleet/sync_peer.h"

namespace ici::baseline {

struct RapidChainConfig {
  std::size_t node_count = 64;
  /// Number of committees k. Committee size m ≈ N/k.
  std::size_t committee_count = 4;
  /// Ring successors each member relays a fresh chunk to. 1 is the minimum
  /// for completeness; each extra unit adds one redundant copy of the block
  /// per member (IDA gossip's erasure redundancy, simplified).
  std::size_t gossip_degree = 2;
  sim::NetworkConfig net;
  std::uint64_t seed = 1;
  /// Event shards for the simulator; whole committees share a lane
  /// (committee % shards). 0 = sim::default_shards() (--shards).
  std::size_t shards = 0;
  /// Serve-side bulk-sync rate limit in bytes/s of sim time; 0 = off.
  double sync_serve_rate_bps = 0.0;
  /// Body-persistence backend per node (--store); mem changes nothing.
  StoreConfig store;
};

// -- wire messages ----------------------------------------------------------

/// One IDA chunk of a block (1/m of the body plus chunk metadata).
struct ChunkMsg final : sim::MessageBase {
  Hash256 block_hash;
  std::uint32_t chunk_index = 0;
  std::uint32_t chunk_count = 0;
  std::size_t chunk_bytes = 0;

  [[nodiscard]] std::size_t wire_size() const override { return 32 + 8 + chunk_bytes; }
  [[nodiscard]] const char* type_name() const override { return "Chunk"; }
};

// -- network ------------------------------------------------------------------

class RapidChainNetwork;

class RapidChainNode final : public sim::INode, public fleet::SyncPeer {
 public:
  RapidChainNode(RapidChainNetwork& ctx, sim::NodeId id, std::size_t committee);

  void on_message(sim::NodeId from, const sim::MessagePtr& msg) override;

  /// Leader path: store the block and start IDA dissemination.
  void lead_dissemination(std::shared_ptr<const Block> block);

  [[nodiscard]] BlockStore& store() { return store_; }
  [[nodiscard]] const BlockStore& store() const { return store_; }
  [[nodiscard]] std::size_t committee() const { return committee_; }

 private:
  void receive_chunk(const ChunkMsg& msg, sim::NodeId from);

  // -- streaming sync: the strategy-specific BulkPullSession::Env hooks ----
  // Heights are sparse (the committee holds only its own blocks), so ranges
  // use the gapped flavour.
  [[nodiscard]] bool sync_linked_headers() const override { return false; }
  [[nodiscard]] sync::PullMode sync_range_mode() const override {
    return sync::PullMode::kHeadersAndBodies;
  }
  [[nodiscard]] bool sync_coded() const override { return false; }
  void sync_commit_header(const BlockHeader& header, const Hash256& hash) override;
  [[nodiscard]] bool sync_wants_body(const Hash256& hash, std::uint64_t height) override;
  void sync_commit_body(const std::shared_ptr<const Block>& block) override;
  [[nodiscard]] std::vector<sim::NodeId> sync_body_candidates(
      const Hash256& hash, std::uint64_t height) override;
  void sync_fetch_assigned_shard(
      const Hash256&, std::uint64_t,
      std::function<void(std::shared_ptr<const Block>)> done) override {
    if (done) done(nullptr);  // committee replication is uncoded
  }

  RapidChainNetwork& ctx_;
  sim::NodeId id_;
  std::size_t committee_;

  struct Reassembly {
    std::unordered_set<std::uint32_t> chunks;
    std::uint32_t needed = 0;
    bool complete = false;
  };
  std::unordered_map<Hash256, Reassembly, Hash256Hasher> reassembly_;
  BlockStore store_;
};

class RapidChainNetwork {
 public:
  explicit RapidChainNetwork(RapidChainConfig cfg);

  RapidChainNetwork(const RapidChainNetwork&) = delete;
  RapidChainNetwork& operator=(const RapidChainNetwork&) = delete;

  void init_with_genesis(const Block& genesis);

  /// Routes `block` to its committee (by block hash) and runs IDA gossip to
  /// quiescence. Returns time until the whole committee holds the block.
  sim::SimTime disseminate_and_settle(const Block& block);

  /// Statically installs a chain: each block on every member of its
  /// committee.
  void preload_chain(const Chain& chain);

  /// New node joins the committee its id hashes to and bulk-pulls the shard
  /// from multiple committee members via the streaming sync protocol.
  [[nodiscard]] fleet::JoinReport bootstrap(sim::Coord coord, const sync::SyncConfig& cfg = {});

  /// Installs a fault injector over the committee network. RapidChain's
  /// intra-committee replication masks crashes until a whole committee is
  /// down. Call at most once.
  void start_faults(const sim::FaultPlan& plan) { rt_.start_faults(plan); }
  [[nodiscard]] const sim::FaultInjector* faults() const { return rt_.faults(); }

  /// Runs the simulator until quiescent / for `us` of simulated time, then
  /// refreshes the mirrored counters.
  void settle() { rt_.settle(); }
  void run_for(sim::SimTime us) { rt_.run_for(us); }

  [[nodiscard]] std::size_t committee_of_block(const Hash256& hash) const;
  [[nodiscard]] const std::vector<sim::NodeId>& committee_members(std::size_t c) const;
  [[nodiscard]] std::size_t gossip_degree() const { return cfg_.gossip_degree; }

  [[nodiscard]] fleet::FleetRuntime& runtime() { return rt_; }
  [[nodiscard]] sim::Simulator& simulator() { return rt_.simulator(); }
  [[nodiscard]] sim::Network& network() { return rt_.network(); }
  [[nodiscard]] metrics::Registry& metrics() { return rt_.metrics(); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] RapidChainNode& node(sim::NodeId id) { return nodes_.at(id); }
  [[nodiscard]] const std::vector<const BlockStore*>& stores() const { return rt_.stores(); }

  /// Shared registry of in-flight blocks so members can materialize the
  /// body once their chunk set completes (chunk payloads are simulated).
  [[nodiscard]] std::shared_ptr<const Block> pending_block(const Hash256& hash) const;

  /// Called by members when they store a disseminated block (through the
  /// runtime's deferred log, so shard-count-invariant).
  void note_stored(const Hash256& hash);

 private:
  [[nodiscard]] std::size_t committee_of_node(sim::NodeId id) const;
  void add_node(sim::NodeId id, sim::Coord coord, std::size_t committee);

  RapidChainConfig cfg_;
  fleet::FleetRuntime rt_;  // before nodes_: see fleet/runtime.h
  ObjectArena<RapidChainNode> nodes_;
  std::vector<std::vector<sim::NodeId>> committees_;
  std::vector<sim::Coord> coords_;

  std::unordered_map<Hash256, std::shared_ptr<const Block>, Hash256Hasher> pending_;
  struct Spread {
    sim::SimTime started = 0;
    std::size_t holders = 0;
    std::size_t committee_size = 0;
    sim::SimTime finished = 0;
  };
  std::unordered_map<Hash256, Spread, Hash256Hasher> spreads_;
  std::uint64_t leader_cursor_ = 0;
  bool genesis_done_ = false;
};

}  // namespace ici::baseline
