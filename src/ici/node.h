// IciNode: one participant in the ICIStrategy network.
//
// Every node plays three roles, all message-driven:
//  * member — verifies its slice of each new block (stateless checks +
//    distributed UTXO lookups), votes, applies committed shard deltas, and
//    stores the bodies the intra-cluster assignment gives it;
//  * head (rotating per height) — receives the full block once for its
//    cluster, fans out slices, tallies votes, commits, and hands bodies to
//    the assigned storers;
//  * server — answers block, shard and sync requests from cluster peers,
//    joiners, and repair.
//
// A node's persistent state is its BlockStore (all headers + assigned
// bodies) and its UTXO shard (the slice of the cluster's UTXO set it owns by
// rendezvous over the outpoint).
#pragma once

#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "cluster/node_info.h"
#include "fleet/sync_peer.h"
#include "ici/config.h"
#include "ici/messages.h"
#include "storage/block_store.h"
#include "storage/shard_store.h"

namespace ici::core {

class IciNetwork;

/// How a block fetch concluded.
enum class FetchOutcome : std::uint8_t {
  kLocal,     // served from this node's own store/shards, zero traffic
  kRemote,    // served by a peer (possibly after failover/retries)
  kTimeout,   // at least one candidate never answered before the deadline
  kNotFound,  // every candidate answered and none could serve the block
};

/// Rich fetch result: the body (null on failure), elapsed sim time, how the
/// fetch concluded, and how hard the fetcher worked for it. Replaces the old
/// (block, elapsed) callback pair so callers can tell timeouts from genuine
/// misses and see the retry/failover effort under faults.
struct FetchResult {
  std::shared_ptr<const Block> block;
  sim::SimTime elapsed_us = 0;
  FetchOutcome outcome = FetchOutcome::kNotFound;
  std::uint32_t attempts = 0;      // candidate requests issued
  std::uint32_t timeouts = 0;      // attempts that expired unanswered
  std::uint32_t retry_rounds = 0;  // extra passes over the candidate list

  [[nodiscard]] bool ok() const { return block != nullptr; }
  explicit operator bool() const { return ok(); }
};

/// Scripted misbehaviour for robustness experiments. A faulty node still
/// follows the wire protocol (so honest peers cannot trivially ignore it)
/// but lies where it hurts.
struct FaultProfile {
  /// Votes REJECT on every valid slice.
  bool vote_reject = false;
  /// Never votes at all (crash-style omission during verification).
  bool drop_slices = false;
  /// Serves tampered bodies/shards to fetchers (detected by Merkle/hash
  /// checks; the fetcher falls back to the next holder).
  bool corrupt_serves = false;

  [[nodiscard]] bool any() const { return vote_reject || drop_slices || corrupt_serves; }
};

class IciNode final : public sim::INode, public fleet::SyncPeer {
 public:
  IciNode(IciNetwork& ctx, cluster::NodeId id);

  IciNode(const IciNode&) = delete;
  IciNode& operator=(const IciNode&) = delete;

  void on_message(sim::NodeId from, const sim::MessagePtr& msg) override;

  /// Proposer entry point: ships the block to every cluster's current head.
  void propose(const Block& block);

  /// Fetches a block body from its cluster storers with candidate failover
  /// and (when IciConfig::fetch_retry_rounds > 0) retry-with-backoff; cb
  /// fires exactly once with the full FetchResult.
  using FetchCallback = std::function<void(const FetchResult&)>;
  void fetch_block(const Hash256& hash, std::uint64_t height, FetchCallback cb);

  /// Direct copy used by repair: pull `hash` from `source`.
  void pull_from(sim::NodeId source, const Hash256& hash);
  [[nodiscard]] BlockStore& store() { return store_; }
  [[nodiscard]] const BlockStore& store() const { return store_; }

  using UtxoShard = std::unordered_map<OutPoint, TxOutput, OutPointHasher>;
  [[nodiscard]] const UtxoShard& utxo_shard() const { return shard_; }

  /// Installs genesis state directly (no messages): the header, and the
  /// body if this node is a genesis storer (or `shard` in coded mode).
  void seed_genesis(const Block& genesis, bool is_storer,
                    const erasure::Shard* shard = nullptr);
  /// Installs one genesis output this node owns by rendezvous, and its tx
  /// location when it is output 0. IciNetwork::init_with_genesis computes
  /// each owner once per cluster and calls this on the owner alone.
  void seed_genesis_output(const OutPoint& op, const TxOutput& out,
                           const Hash256& genesis_hash);

  [[nodiscard]] ShardStore& shards() { return shard_store_; }
  [[nodiscard]] const ShardStore& shards() const { return shard_store_; }

  /// Coded-mode repair: reconstruct the block from cluster shards and keep
  /// shard `store_index` locally.
  void repair_shard(const Hash256& hash, std::uint64_t height, std::uint32_t store_index);

  /// SPV: obtains a Merkle inclusion proof for `txid` in the block at
  /// (`hash`, `height`). In replication mode the proof is built remotely by
  /// a body holder; in coded mode the block is reconstructed here first.
  using ProofCallback = std::function<void(std::optional<spv::TxInclusionProof>, sim::SimTime)>;
  void fetch_proof(const Hash256& txid, const Hash256& hash, std::uint64_t height,
                   ProofCallback cb);

  /// Locates the block containing `txid` by asking the cluster member that
  /// indexes it (the rendezvous owner of the tx's first output). The index
  /// is maintained for free from commit deltas. cb(found, hash, height).
  using LocateCallback = std::function<void(bool, Hash256, std::uint64_t)>;
  void locate_tx(const Hash256& txid, LocateCallback cb);

  /// Full light-path convenience: locate the tx, then fetch its inclusion
  /// proof — what a wallet that only knows a txid does.
  void locate_and_prove(const Hash256& txid, ProofCallback cb);

  /// Installs a tx-index entry directly (preload fast path; live networks
  /// learn locations from commit deltas).
  void index_tx(const Hash256& txid, const Hash256& block_hash, std::uint64_t height);

  /// Total persistent footprint: headers + bodies + erasure shards + this
  /// node's slice of the cluster UTXO set (entries of outpoint 36 + value
  /// 8 + recipient 32 bytes, matching PrunedNode::snapshot_bytes).
  [[nodiscard]] std::uint64_t storage_bytes() const {
    return store_.total_bytes() + shard_store_.total_bytes() + shard_.size() * (36 + 8 + 32);
  }

  void set_fault(FaultProfile profile) { fault_ = profile; }
  [[nodiscard]] const FaultProfile& fault() const { return fault_; }

  /// Drops a stored body (repair migration). Returns bytes freed.
  std::uint64_t prune(const Hash256& hash) { return store_.prune_block(hash); }

 private:
  // -- head role --------------------------------------------------------
  struct PendingVerify {
    std::shared_ptr<const Block> block;
    std::size_t expected = 0;
    std::size_t votes_received = 0;  // every valid vote, however it counted
    std::unordered_set<sim::NodeId> voters;  // dedupes injected duplicates
    std::size_t approvals = 0;
    std::size_t rejections = 0;      // unsubstantiated rejections only
    std::size_t challenges_pending = 0;  // commits wait for open challenges
    bool decided = false;
    sim::SimTime started = 0;
  };
  void handle_full_block(const FullBlockMsg& msg);
  void start_cluster_verification(std::shared_ptr<const Block> block);
  void handle_vote(sim::NodeId from, const VoteMsg& msg);
  void maybe_decide(const Hash256& block_hash);
  void commit_block(const Hash256& block_hash);
  void reject_block(const Hash256& block_hash, const char* counter);

  // -- UTXO lookups: one round per slice (member) or challenge (head) ----
  /// The UTXO entries one verification needs, each resolved from this
  /// node's shard or awaited from its owner. A timed-out round decides on
  /// what arrived.
  struct LookupRound {
    std::unordered_map<OutPoint, std::optional<TxOutput>, OutPointHasher> resolved;
    std::size_t outstanding = 0;  // entries still awaited from owners
    bool timed_out = false;
  };
  /// Owner → the outpoints to ask it for.
  using LookupAsks = std::unordered_map<sim::NodeId, std::vector<OutPoint>>;
  void resolve_inputs(const Transaction& tx, LookupRound& round, LookupAsks& asks) const;
  /// One lookup per owner; the owner echoes `context` in its response.
  void send_lookups(const Hash256& context, LookupAsks& asks);
  /// Folds a response into the round; true once nothing is outstanding.
  static bool apply_lookups(LookupRound& round, const UtxoResponseMsg& msg);
  /// The stateful checks of a non-coinbase tx over the round's entries.
  [[nodiscard]] static bool inputs_valid(const Transaction& tx, const LookupRound& round);

  // Challenge (fraud-proof) verification at the head: re-check one tx.
  struct PendingChallenge {
    Hash256 block_hash;
    Transaction tx;
    LookupRound lookups;
  };
  void start_challenge(const Hash256& block_hash, const Hash256& txid);
  void finish_challenge(const Hash256& challenge_key);

  // -- member role ------------------------------------------------------
  struct PendingSlice {
    sim::NodeId head = 0;
    std::shared_ptr<const SliceMsg> msg;  // the slice as handed over
    LookupRound lookups;
    sim::SimTime received = 0;  // slice arrival, for verify-latency tracing
  };
  void handle_slice(sim::NodeId from, std::shared_ptr<const SliceMsg> msg);
  void finish_slice(const Hash256& block_hash);
  void handle_utxo_lookup(sim::NodeId from, const UtxoLookupMsg& msg);
  void handle_utxo_response(const UtxoResponseMsg& msg);
  void handle_commit(const CommitMsg& msg);

  // -- streaming sync: the strategy-specific BulkPullSession::Env hooks ----
  [[nodiscard]] bool sync_linked_headers() const override { return true; }
  [[nodiscard]] sync::PullMode sync_range_mode() const override {
    return sync::PullMode::kHeaders;
  }
  [[nodiscard]] bool sync_coded() const override;
  void sync_commit_header(const BlockHeader& header, const Hash256& hash) override;
  [[nodiscard]] bool sync_wants_body(const Hash256& hash, std::uint64_t height) override;
  void sync_commit_body(const std::shared_ptr<const Block>& block) override;
  [[nodiscard]] std::vector<sim::NodeId> sync_body_candidates(
      const Hash256& hash, std::uint64_t height) override;
  void sync_fetch_assigned_shard(
      const Hash256& hash, std::uint64_t height,
      std::function<void(std::shared_ptr<const Block>)> done) override;

  // -- server role ------------------------------------------------------
  void handle_block_request(sim::NodeId from, const BlockRequestMsg& msg);

  // -- requests: block fetches and pulls, SPV proofs, tx locations --------
  /// One outstanding request, asked of its candidates one at a time. An
  /// attempt ends with an accepted answer, a rejected one (a miss, a corrupt
  /// body, a bad proof) or its timeout; the last two move on to the next
  /// candidate, and a retry round (block requests only) walks the list again
  /// with a backed-off timeout. `done` runs once, after the entry has left
  /// the table, with the accepted answer or null.
  struct PendingRequest {
    MsgKind answer = MsgKind::kBlockResponse;  // what candidates reply with
    Hash256 block_hash;                        // block and proof requests
    Hash256 txid;                              // proof and locate requests
    std::vector<sim::NodeId> candidates;       // in the order asked
    std::size_t next_candidate = 0;
    sim::SimTime started = 0;
    sim::SimTime timeout_us = 0;  // per attempt; grows by the backoff
    std::uint32_t attempts = 0;
    std::uint32_t timeouts = 0;
    std::uint32_t rounds_left = 0;  // retry passes still allowed
    std::uint32_t rounds_used = 0;
    std::function<void(const PendingRequest&, const IciMessage*)> done;
  };
  void start_request(PendingRequest request);
  void next_attempt(std::uint64_t request_id);
  void on_answer(std::uint64_t request_id, const IciMessage& answer);
  [[nodiscard]] bool answer_ok(const PendingRequest& request, const IciMessage& answer);
  void finish_request(std::uint64_t request_id, const IciMessage* answer);

  /// A replicated block fetch from `candidates` (fetch_block, pull_from).
  void request_block(const Hash256& hash, std::vector<sim::NodeId> candidates,
                     FetchCallback cb);
  /// The one exit of every block fetch, replicated or coded: sets the
  /// outcome, bumps retrieval.*, and hands the result to `cb`.
  void finish_fetch(FetchResult result, bool timed_out, const char* span,
                    const FetchCallback& cb);

  // -- coded mode ---------------------------------------------------------
  void handle_block_shard(const BlockShardMsg& msg);
  void handle_shard_request(sim::NodeId from, const ShardRequestMsg& msg);
  void handle_shard_response(const ShardResponseMsg& msg);
  void fetch_block_coded(const Hash256& hash, std::uint64_t height, FetchCallback cb,
                         std::optional<std::uint32_t> store_index);
  void finish_coded_fetch(std::uint64_t request_id);

  struct PendingCodedFetch {
    Hash256 hash;
    std::vector<erasure::Shard> collected;
    std::vector<bool> have;  // by shard index
    std::vector<sim::NodeId> candidates;
    std::size_t next_candidate = 0;
    std::size_t outstanding = 0;
    sim::SimTime started = 0;
    sim::SimTime timeout_us = 0;
    std::uint32_t attempts = 0;
    std::uint32_t timeouts = 0;  // requests outstanding at an expired deadline
    std::uint32_t rounds_left = 0;
    std::uint32_t rounds_used = 0;
    std::optional<std::uint32_t> store_index;  // repair: keep this shard
    FetchCallback cb;
  };
  /// Issues shard requests until (in-flight + collected) covers d.
  void pump_coded_fetch(std::uint64_t request_id);
  /// Arms the decide-on-what-arrived deadline; a retry round re-arms it with
  /// the backed-off timeout instead of finishing.
  void arm_coded_deadline(std::uint64_t request_id);

  // -- SPV proof and tx-location serving ------------------------------------
  void handle_proof_request(sim::NodeId from, const ProofRequestMsg& msg);
  void handle_tx_locate_request(sim::NodeId from, const TxLocateRequestMsg& msg);

  IciNetwork& ctx_;
  cluster::NodeId id_;
  KeyPair key_;
  BlockStore store_;
  UtxoShard shard_;
  FaultProfile fault_;

  std::unordered_map<Hash256, PendingVerify, Hash256Hasher> verifying_;
  std::unordered_map<Hash256, PendingSlice, Hash256Hasher> slices_;
  std::unordered_map<Hash256, PendingChallenge, Hash256Hasher> challenges_;
  std::unordered_map<std::uint64_t, PendingRequest> requests_;
  std::unordered_map<std::uint64_t, PendingCodedFetch> coded_fetches_;
  /// txid → (block hash, height) for txs whose first output this node owns.
  struct TxLocation {
    Hash256 block_hash;
    std::uint64_t height = 0;
  };
  std::unordered_map<Hash256, TxLocation, Hash256Hasher> tx_index_;
  ShardStore shard_store_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace ici::core
