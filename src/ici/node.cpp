#include "ici/node.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "ici/network.h"
#include "obs/trace.h"
#include "sync/serve.h"

namespace ici::core {

using cluster::NodeId;

namespace {

/// Digest a member commits to in its vote: the txids it verified.
Hash256 slice_digest_of(std::span<const Transaction> txs) {
  ByteWriter w(txs.size() * 32);
  for (const Transaction& tx : txs) w.raw(tx.txid().span());
  return Hash256::tagged("ici/slice", ByteSpan(w.bytes().data(), w.bytes().size()));
}

Bytes vote_payload(const Hash256& block_hash, bool approve, const Hash256& slice_digest,
                   const std::optional<Hash256>& challenge) {
  ByteWriter w(102);
  w.raw(block_hash.span());
  w.u8(approve ? 1 : 0);
  w.raw(slice_digest.span());
  w.u8(challenge ? 1 : 0);
  if (challenge) w.raw(challenge->span());
  return w.take();
}

// Protocol timeouts in sim time. A head stops waiting for votes after
// kVerifyTimeoutUs and decides on those that arrived. A lookup round stops
// waiting for silent owners after kLookupTimeoutUs and decides on what it
// knows (a missing entry then counts as unknown, not invalid: the member
// approves with a caveat, the head finds no fraud). A request moves to its
// next candidate after kFetchTimeoutUs, multiplied by kFetchRetryBackoff on
// every retry round.
constexpr sim::SimTime kVerifyTimeoutUs = 30'000'000;
constexpr sim::SimTime kLookupTimeoutUs = 5'000'000;
constexpr sim::SimTime kFetchTimeoutUs = 10'000'000;
constexpr double kFetchRetryBackoff = 2.0;

}  // namespace

IciNode::IciNode(IciNetwork& ctx, NodeId id)
    : fleet::SyncPeer(ctx.runtime(), id),
      ctx_(ctx), id_(id), key_(KeyPair::from_seed(0x1c1'0000ULL + id)),
      store_(ctx.runtime().header_index()) {
  // Hot storage scalars live in the fleet's contiguous tally row for this
  // id; the stores write through it (fleet_tally.h).
  store_.bind_tally(&ctx.runtime().fleet_tally(), id);
  shard_store_.bind_tally(&ctx.runtime().fleet_tally(), id);
}

void IciNode::seed_genesis(const Block& genesis, bool is_storer,
                           const erasure::Shard* shard) {
  const Hash256 h = genesis.hash();
  if (is_storer) {
    store_.put(HashedBlock(genesis, h));
  } else {
    store_.put(StoredBlock::header_only(genesis.header(), h));
  }
  if (shard != nullptr) shard_store_.put(h, *shard);
}

void IciNode::seed_genesis_output(const OutPoint& op, const TxOutput& out,
                                  const Hash256& genesis_hash) {
  if (shard_.emplace(op, out).second) ++ctx_.runtime().fleet_tally().slot(id_).utxo_entries;
  if (op.index == 0) tx_index_[op.txid] = {genesis_hash, 0};
}

void IciNode::index_tx(const Hash256& txid, const Hash256& block_hash, std::uint64_t height) {
  tx_index_[txid] = {block_hash, height};
}

void IciNode::on_message(sim::NodeId from, const sim::MessagePtr& msg) {
  if (const auto* s = dynamic_cast<const sync::SyncMessage*>(msg.get())) {
    // Coded peers advertise their shard inventory instead of bodies.
    handle_sync_message(from, *s, store_,
                        ctx_.coded() ? shard_store_.shard_count() : store_.block_count(),
                        ctx_.coded());
    return;
  }
  const auto* m = dynamic_cast<const IciMessage*>(msg.get());
  if (m == nullptr) return;  // foreign message type; not ours
  switch (m->kind()) {
    case MsgKind::kFullBlock:
      handle_full_block(static_cast<const FullBlockMsg&>(*m));
      break;
    case MsgKind::kSlice:
      handle_slice(from, std::static_pointer_cast<const SliceMsg>(msg));
      break;
    case MsgKind::kUtxoLookup:
      handle_utxo_lookup(from, static_cast<const UtxoLookupMsg&>(*m));
      break;
    case MsgKind::kUtxoResponse:
      handle_utxo_response(static_cast<const UtxoResponseMsg&>(*m));
      break;
    case MsgKind::kVote:
      handle_vote(from, static_cast<const VoteMsg&>(*m));
      break;
    case MsgKind::kCommit:
      handle_commit(static_cast<const CommitMsg&>(*m));
      break;
    case MsgKind::kBlockRequest:
      handle_block_request(from, static_cast<const BlockRequestMsg&>(*m));
      break;
    case MsgKind::kBlockResponse:
      on_answer(static_cast<const BlockResponseMsg&>(*m).request_id, *m);
      break;
    case MsgKind::kBlockShard:
      handle_block_shard(static_cast<const BlockShardMsg&>(*m));
      break;
    case MsgKind::kShardRequest:
      handle_shard_request(from, static_cast<const ShardRequestMsg&>(*m));
      break;
    case MsgKind::kShardResponse:
      handle_shard_response(static_cast<const ShardResponseMsg&>(*m));
      break;
    case MsgKind::kProofRequest:
      handle_proof_request(from, static_cast<const ProofRequestMsg&>(*m));
      break;
    case MsgKind::kProofResponse:
      on_answer(static_cast<const ProofResponseMsg&>(*m).request_id, *m);
      break;
    case MsgKind::kTxLocateRequest:
      handle_tx_locate_request(from, static_cast<const TxLocateRequestMsg&>(*m));
      break;
    case MsgKind::kTxLocateResponse:
      on_answer(static_cast<const TxLocateResponseMsg&>(*m).request_id, *m);
      break;
  }
}

// ---------------------------------------------------------------------------
// Proposer
// ---------------------------------------------------------------------------

void IciNode::propose(const Block& block) {
  auto msg =
      std::make_shared<FullBlockMsg>(std::make_shared<const Block>(block), /*verify=*/true);
  const std::uint64_t height = block.header().height;
  for (std::size_t c = 0; c < ctx_.directory().cluster_count(); ++c) {
    const auto head = ctx_.directory().head(c, height);
    if (!head) {
      ctx_.metrics().counter("propose.headless_cluster").inc();
      continue;
    }
    ctx_.network().send(id_, *head, msg);
  }
}

// ---------------------------------------------------------------------------
// Head role
// ---------------------------------------------------------------------------

void IciNode::handle_full_block(const FullBlockMsg& msg) {
  if (msg.for_verification) {
    start_cluster_verification(msg.block);
  } else {
    // Storage hand-off from a committing head.
    store_.put(HashedBlock(msg.block));
    ctx_.metrics().counter("storage.bodies_received").inc();
  }
}

void IciNode::start_cluster_verification(std::shared_ptr<const Block> block) {
  const Hash256 hash = block->hash();
  if (verifying_.contains(hash) || store_.has_block(hash)) return;

  // Structural checks the head performs on the whole block: Merkle
  // consistency and no duplicate outpoints across transactions (cross-slice
  // conflicts individual members cannot see).
  {
    const obs::Span span("verify/head_checks");
    if (!block->merkle_ok()) {
      ctx_.metrics().counter("verify.head_rejected").inc();
      return;
    }
    std::unordered_set<OutPoint, OutPointHasher> spent;
    for (const Transaction& tx : block->txs()) {
      for (const TxInput& in : tx.inputs()) {
        if (!spent.insert(in.prevout).second) {
          ctx_.metrics().counter("verify.head_rejected").inc();
          return;
        }
      }
    }
  }

  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  const std::vector<cluster::NodeInfo> members = ctx_.directory().online_members(my_cluster);
  if (members.empty()) return;

  PendingVerify pv;
  pv.block = block;
  pv.expected = members.size();
  pv.started = ctx_.simulator().now();
  verifying_.emplace(hash, std::move(pv));

  // Contiguous slices, sizes differing by at most one.
  const std::size_t n = block->txs().size();
  const std::size_t m = members.size();
  std::size_t begin = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t len = n / m + (i < n % m ? 1 : 0);
    ctx_.network().send(id_, members[i].id, std::make_shared<SliceMsg>(block, hash, begin, len));
    begin += len;
  }
  ctx_.metrics().counter("verify.rounds_started").inc();

  ctx_.simulator().after(kVerifyTimeoutUs, [this, hash] {
    const auto it = verifying_.find(hash);
    if (it == verifying_.end() || it->second.decided) return;
    PendingVerify& pv = it->second;
    // Timeout: stop waiting for silent members; the quorum is judged over
    // the votes that actually arrived (disproven challenges still count as
    // received votes, so byzantine challengers cannot shrink the
    // denominator). An unresolved challenge at the hard deadline is
    // treated as unproven fraud: too risky to commit, abort.
    const auto need = static_cast<std::size_t>(std::ceil(
        ctx_.config().vote_quorum *
        static_cast<double>(std::max<std::size_t>(pv.votes_received, 1))));
    if (pv.expected > pv.votes_received) {
      ctx_.metrics().counter("verify.votes_missing").inc(pv.expected - pv.votes_received);
    }
    if (pv.challenges_pending == 0 && pv.approvals > 0 && pv.approvals >= need) {
      commit_block(hash);
    } else {
      pv.decided = true;
      ctx_.metrics().counter("verify.aborted").inc();
      verifying_.erase(it);
    }
  });
}

void IciNode::handle_vote(sim::NodeId from, const VoteMsg& msg) {
  const auto it = verifying_.find(msg.block_hash);
  if (it == verifying_.end()) {
    ctx_.metrics().counter("verify.late_votes").inc();
    return;
  }
  const Bytes payload =
      vote_payload(msg.block_hash, msg.approve, msg.slice_digest, msg.challenged_txid);
  if (!verify(msg.voter, payload, msg.sig)) {
    ctx_.metrics().counter("verify.bad_vote_sig").inc();
    return;
  }
  // One vote per member: injected duplicate deliveries (sim/faults.h) must
  // not inflate the tally. Fault-free runs never see a second copy, so this
  // guard leaves their metrics untouched.
  if (!it->second.voters.insert(from).second) {
    ctx_.metrics().counter("verify.duplicate_votes").inc();
    return;
  }
  ++it->second.votes_received;
  if (msg.approve) {
    ++it->second.approvals;
  } else if (msg.challenged_txid) {
    // A substantiated rejection: re-verify the named transaction ourselves.
    // The decision is held open until the challenge resolves; confirmed
    // fraud vetoes the block, a disproven challenge is discarded so
    // byzantine rejections gain no veto power.
    start_challenge(msg.block_hash, *msg.challenged_txid);
  } else {
    ++it->second.rejections;
  }
  maybe_decide(msg.block_hash);
}

void IciNode::maybe_decide(const Hash256& block_hash) {
  const auto it = verifying_.find(block_hash);
  if (it == verifying_.end() || it->second.decided) return;
  PendingVerify& pv = it->second;
  if (pv.challenges_pending > 0) return;  // fraud check in flight
  const auto need = static_cast<std::size_t>(
      std::ceil(ctx_.config().vote_quorum * static_cast<double>(pv.expected)));
  // Commit only once every online member has spoken (or, via the timeout
  // path, stopped being waited for): a still-outstanding vote may carry a
  // fraud challenge, and honest detection is typically the slowest vote
  // because it waits on its UTXO lookups.
  if (pv.approvals >= need && pv.votes_received >= pv.expected) {
    commit_block(block_hash);
  } else if (pv.rejections > pv.expected - need) {
    reject_block(block_hash, "verify.rejected");
  }
}

void IciNode::reject_block(const Hash256& block_hash, const char* counter) {
  const auto it = verifying_.find(block_hash);
  if (it == verifying_.end() || it->second.decided) return;
  it->second.decided = true;
  ctx_.metrics().counter(counter).inc();
  verifying_.erase(it);
}

void IciNode::start_challenge(const Hash256& block_hash, const Hash256& txid) {
  const auto pv_it = verifying_.find(block_hash);
  if (pv_it == verifying_.end() || pv_it->second.decided) return;

  ByteWriter key_bytes(64);
  key_bytes.raw(block_hash.span());
  key_bytes.raw(txid.span());
  const Hash256 key = Hash256::tagged(
      "ici/challenge", ByteSpan(key_bytes.bytes().data(), key_bytes.bytes().size()));
  if (challenges_.contains(key)) return;  // duplicate challenge, already checking

  // The challenged tx must exist in the block at all.
  const Transaction* tx = nullptr;
  for (const Transaction& candidate : pv_it->second.block->txs()) {
    if (candidate.txid() == txid) {
      tx = &candidate;
      break;
    }
  }
  if (tx == nullptr) {
    ctx_.metrics().counter("fraud.bogus").inc();  // challenge about a foreign tx
    return;
  }

  // Immediate verdicts that need no lookups.
  if (!ctx_.tx_stateless_ok(*tx)) {
    ctx_.metrics().counter("fraud.confirmed").inc();
    reject_block(block_hash, "verify.fraud_rejected");
    return;
  }
  if (tx->is_coinbase()) {
    ctx_.metrics().counter("fraud.bogus").inc();
    return;
  }

  PendingChallenge pc{block_hash, *tx, {}};
  LookupAsks asks;
  resolve_inputs(pc.tx, pc.lookups, asks);
  const bool waiting = pc.lookups.outstanding > 0;
  pv_it->second.challenges_pending += 1;
  challenges_.emplace(key, std::move(pc));
  send_lookups(key, asks);  // the challenge key is the lookup context

  if (!waiting) {
    finish_challenge(key);
    return;
  }
  ctx_.simulator().after(kLookupTimeoutUs, [this, key] {
    const auto pending = challenges_.find(key);
    if (pending == challenges_.end()) return;
    pending->second.lookups.timed_out = true;
    finish_challenge(key);
  });
}

void IciNode::finish_challenge(const Hash256& challenge_key) {
  const auto it = challenges_.find(challenge_key);
  if (it == challenges_.end()) return;
  const bool fraudulent = !inputs_valid(it->second.tx, it->second.lookups);
  const Hash256 block_hash = it->second.block_hash;
  challenges_.erase(it);

  const auto pv_it = verifying_.find(block_hash);
  if (pv_it == verifying_.end() || pv_it->second.decided) return;
  if (pv_it->second.challenges_pending > 0) pv_it->second.challenges_pending -= 1;

  if (fraudulent) {
    ctx_.metrics().counter("fraud.confirmed").inc();
    reject_block(block_hash, "verify.fraud_rejected");
  } else {
    ctx_.metrics().counter("fraud.bogus").inc();
    maybe_decide(block_hash);
  }
}

void IciNode::commit_block(const Hash256& block_hash) {
  const auto it = verifying_.find(block_hash);
  if (it == verifying_.end() || it->second.decided) return;
  PendingVerify& pv = it->second;
  pv.decided = true;

  const Block& block = *pv.block;
  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  const std::uint64_t height = block.header().height;

  if (ctx_.coded()) {
    // Coded mode: Reed-Solomon the body across d+p distinct members.
    const Bytes payload = block.serialize();
    const auto shards = ctx_.codec().encode(ByteSpan(payload.data(), payload.size()));
    const std::vector<NodeId> holders = ctx_.shard_holders(block_hash, height, my_cluster);
    for (std::size_t i = 0; i < holders.size(); ++i) {
      if (!ctx_.directory().online(holders[i])) continue;  // repaired later
      if (holders[i] == id_) {
        shard_store_.put(block_hash, shards[i]);
        continue;
      }
      auto msg = std::make_shared<BlockShardMsg>();
      msg->block_hash = block_hash;
      msg->height = height;
      msg->shard = shards[i];
      ctx_.network().send(id_, holders[i], std::move(msg));
    }
  } else {
    // Hand the body to the assigned storers.
    const std::vector<NodeId> storers =
        ctx_.storers_of(block_hash, height, my_cluster, /*online_only=*/true);
    auto body = std::make_shared<FullBlockMsg>(pv.block, /*verify=*/false);
    for (NodeId s : storers) {
      if (s == id_) {
        store_.put(HashedBlock(pv.block, block_hash));
      } else {
        ctx_.network().send(id_, s, body);
      }
    }
  }

  // Per-member UTXO-shard deltas.
  std::unordered_map<NodeId, std::shared_ptr<CommitMsg>> deltas;
  auto delta_for = [&](NodeId owner) -> CommitMsg& {
    auto& slot = deltas[owner];
    if (!slot) {
      slot = std::make_shared<CommitMsg>();
      slot->header = block.header();
      slot->block_hash = block_hash;
    }
    return *slot;
  };
  for (const Transaction& tx : block.txs()) {
    for (const TxInput& in : tx.inputs()) {
      delta_for(ctx_.utxo_owner(in.prevout, my_cluster)).spent.push_back(in.prevout);
    }
    const Hash256& txid = tx.txid();
    for (std::uint32_t i = 0; i < tx.outputs().size(); ++i) {
      const OutPoint op{txid, i};
      delta_for(ctx_.utxo_owner(op, my_cluster)).created.emplace_back(op, tx.outputs()[i]);
    }
  }
  // Every online member gets a commit notice (empty delta if not an owner).
  for (const cluster::NodeInfo& member : ctx_.directory().online_members(my_cluster)) {
    auto found = deltas.find(member.id);
    std::shared_ptr<CommitMsg> msg;
    if (found != deltas.end()) {
      msg = found->second;
    } else {
      msg = std::make_shared<CommitMsg>();
      msg->header = block.header();
      msg->block_hash = block_hash;
    }
    ctx_.network().send(id_, member.id, std::move(msg));
  }

  ctx_.metrics().counter("commit.count").inc();
  const sim::SimTime verify_elapsed = ctx_.simulator().now() - pv.started;
  ctx_.metrics().distribution("commit.cluster_latency_us")
      .add(static_cast<double>(verify_elapsed));
  obs::TraceSink::global().record_sim("verify/commit", static_cast<double>(verify_elapsed));
  ctx_.note_commit(block);
  verifying_.erase(it);
}

// ---------------------------------------------------------------------------
// Member role
// ---------------------------------------------------------------------------

void IciNode::handle_slice(sim::NodeId from, std::shared_ptr<const SliceMsg> msg) {
  if (fault_.drop_slices) {
    ctx_.metrics().counter("fault.slices_dropped").inc();
    return;
  }
  const Hash256 hash = msg->block_hash;
  if (slices_.contains(hash)) return;

  PendingSlice ps{from, std::move(msg), {}, ctx_.simulator().now()};
  // Gather the UTXO lookups this slice needs (validity checks, including
  // the stateless ones, run per-tx in finish_slice so the first offender
  // can be named in a challenge).
  LookupAsks asks;
  for (const Transaction& tx : ps.msg->txs()) {
    if (!tx.is_coinbase()) resolve_inputs(tx, ps.lookups, asks);
  }
  const bool waiting = ps.lookups.outstanding > 0;
  slices_.emplace(hash, std::move(ps));
  // counter() registers its name: an all-local slice must not add one.
  if (!asks.empty()) ctx_.metrics().counter("lookup.requests").inc(asks.size());
  send_lookups(hash, asks);

  if (!waiting) {
    finish_slice(hash);
    return;
  }
  ctx_.simulator().after(kLookupTimeoutUs, [this, hash] {
    const auto pending = slices_.find(hash);
    if (pending == slices_.end()) return;
    pending->second.lookups.timed_out = true;
    ctx_.metrics().counter("lookup.timeouts").inc();
    finish_slice(hash);
  });
}

void IciNode::resolve_inputs(const Transaction& tx, LookupRound& round,
                             LookupAsks& asks) const {
  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  for (const TxInput& in : tx.inputs()) {
    const NodeId owner = ctx_.utxo_owner(in.prevout, my_cluster);
    if (owner == id_) {
      const auto found = shard_.find(in.prevout);
      round.resolved[in.prevout] =
          found == shard_.end() ? std::nullopt : std::make_optional(found->second);
    } else {
      asks[owner].push_back(in.prevout);
      round.resolved[in.prevout] = std::nullopt;  // placeholder until response
      ++round.outstanding;
    }
  }
}

void IciNode::send_lookups(const Hash256& context, LookupAsks& asks) {
  for (auto& [owner, ops] : asks) {
    auto lk = std::make_shared<UtxoLookupMsg>();
    lk->block_hash = context;
    lk->outpoints = std::move(ops);
    ctx_.network().send(id_, owner, std::move(lk));
  }
}

bool IciNode::apply_lookups(LookupRound& round, const UtxoResponseMsg& msg) {
  for (const UtxoResponseEntry& entry : msg.entries) {
    const auto slot = round.resolved.find(entry.outpoint);
    if (slot == round.resolved.end()) continue;
    if (entry.exists) slot->second = entry.output;
    if (round.outstanding > 0) --round.outstanding;
  }
  return round.outstanding == 0;
}

bool IciNode::inputs_valid(const Transaction& tx, const LookupRound& round) {
  Amount in_value = 0;
  bool known = true;
  for (const TxInput& in : tx.inputs()) {
    const auto& entry = round.resolved.at(in.prevout);
    if (!entry) {
      // Missing: a double-spend or unknown outpoint when every owner
      // answered, but possibly just unheard after a timeout.
      if (!round.timed_out) return false;
      known = false;
      continue;
    }
    if (entry->recipient != in.pub) return false;
    in_value += entry->value;
  }
  return !known || tx.total_output() <= in_value;
}

void IciNode::handle_utxo_lookup(sim::NodeId from, const UtxoLookupMsg& msg) {
  auto resp = std::make_shared<UtxoResponseMsg>();
  resp->block_hash = msg.block_hash;
  resp->entries.reserve(msg.outpoints.size());
  for (const OutPoint& op : msg.outpoints) {
    UtxoResponseEntry entry;
    entry.outpoint = op;
    const auto found = shard_.find(op);
    if (found != shard_.end()) {
      entry.exists = true;
      entry.output = found->second;
    }
    resp->entries.push_back(entry);
  }
  ctx_.network().send(id_, from, std::move(resp));
}

void IciNode::handle_utxo_response(const UtxoResponseMsg& msg) {
  // The context key distinguishes slice verification from head-side
  // challenge checks (the owner just echoes it).
  if (const auto it = slices_.find(msg.block_hash); it != slices_.end()) {
    if (apply_lookups(it->second.lookups, msg)) finish_slice(msg.block_hash);
    return;
  }
  if (const auto it = challenges_.find(msg.block_hash); it != challenges_.end()) {
    if (apply_lookups(it->second.lookups, msg)) finish_challenge(msg.block_hash);
  }
}

void IciNode::finish_slice(const Hash256& block_hash) {
  const auto it = slices_.find(block_hash);
  if (it == slices_.end()) return;
  const PendingSlice& ps = it->second;

  // CPU cost of the tx checks is the wall span; the sim-time sample below
  // additionally covers the distributed lookup round-trips.
  const obs::Span span("verify/slice");
  obs::TraceSink::global().record_sim(
      "verify/slice", static_cast<double>(ctx_.simulator().now() - ps.received));

  // The stateless verdicts come from the network's per-block pass; the
  // stateful checks read the already-resolved UTXO entries. The first
  // offender in slice order is the challenge the head will re-verify.
  const std::span<const Transaction> txs = ps.msg->txs();
  bool approve = true;
  std::optional<Hash256> offender;
  for (const Transaction& tx : txs) {
    // After a lookup timeout an unheard entry passes: the member votes
    // approve-with-caveat (liveness bias).
    if (!ctx_.tx_stateless_ok(tx) || (!tx.is_coinbase() && !inputs_valid(tx, ps.lookups))) {
      approve = false;
      offender = tx.txid();
      break;
    }
  }

  if (fault_.vote_reject) {
    // Byzantine rejection: flip the vote and (maximally annoying) fabricate
    // a challenge against a valid transaction — the head will disprove it.
    approve = false;
    if (!offender && !txs.empty()) offender = txs.front().txid();
    ctx_.metrics().counter("fault.votes_flipped").inc();
  }

  const Hash256 digest = slice_digest_of(txs);
  auto vote = std::make_shared<VoteMsg>();
  vote->block_hash = block_hash;
  vote->approve = approve;
  vote->slice_digest = digest;
  if (!approve) vote->challenged_txid = offender;
  vote->voter = key_.pub;
  const Bytes payload = vote_payload(block_hash, approve, digest, vote->challenged_txid);
  vote->sig = sign(key_, payload);
  ctx_.network().send(id_, ps.head, std::move(vote));
  ctx_.metrics().counter(approve ? "verify.slice_approved" : "verify.slice_rejected").inc();
  slices_.erase(it);
}

void IciNode::handle_commit(const CommitMsg& msg) {
  store_.put(StoredBlock::header_only(msg.header, msg.block_hash));
  auto& tally = ctx_.runtime().fleet_tally().slot(id_);
  for (const OutPoint& op : msg.spent) tally.utxo_entries -= shard_.erase(op);
  for (const auto& [op, out] : msg.created) {
    if (shard_.insert_or_assign(op, out).second) ++tally.utxo_entries;
    // Free tx index: the owner of a tx's first output learns where the tx
    // landed from the delta it receives anyway.
    if (op.index == 0) tx_index_[op.txid] = {msg.block_hash, msg.header.height};
  }
  ctx_.metrics().counter("commit.notices").inc();
}

// ---------------------------------------------------------------------------
// Server role + request engine
// ---------------------------------------------------------------------------

void IciNode::handle_block_request(sim::NodeId from, const BlockRequestMsg& msg) {
  auto resp = std::make_shared<BlockResponseMsg>();
  resp->block_hash = msg.block_hash;
  resp->request_id = msg.request_id;
  const BlockRef ref = store_.block_by_hash(msg.block_hash);
  resp->block = ref.share();
  if (resp->block && fault_.corrupt_serves) {
    // Serve a tampered body: same header, one transaction replaced. The
    // fetcher's Merkle check rejects it and falls back to the next holder.
    std::vector<Transaction> txs = resp->block->txs();
    if (!txs.empty()) {
      txs.back() = Transaction::coinbase(key_.pub, 1, 0xbad);
    }
    resp->block = std::make_shared<const Block>(Block(resp->block->header(), std::move(txs)));
    ctx_.metrics().counter("fault.corrupt_serves").inc();
  }
  send_after(from, std::move(resp), ref.io_delay_us);  // a cold read answers late
}

void IciNode::start_request(PendingRequest request) {
  const std::uint64_t rid = next_request_id_++;
  request.started = ctx_.simulator().now();
  request.timeout_us = kFetchTimeoutUs;
  requests_.emplace(rid, std::move(request));
  next_attempt(rid);
}

void IciNode::next_attempt(std::uint64_t request_id) {
  const auto it = requests_.find(request_id);
  if (it == requests_.end()) return;
  PendingRequest& req = it->second;

  if (req.next_candidate >= req.candidates.size()) {
    if (req.rounds_left == 0 || req.candidates.empty()) {
      finish_request(request_id, nullptr);
      return;
    }
    // Retry-with-backoff: another full pass over the candidate list with a
    // longer per-attempt timeout. Candidates that merely dropped our
    // request or response (message faults) get a second chance.
    --req.rounds_left;
    ++req.rounds_used;
    req.next_candidate = 0;
    req.timeout_us = static_cast<sim::SimTime>(static_cast<double>(req.timeout_us) *
                                               kFetchRetryBackoff);
    ctx_.metrics().counter("retrieval.retry_rounds").inc();
  }

  const NodeId target = req.candidates[req.next_candidate++];
  const std::uint32_t attempt = ++req.attempts;
  sim::MessagePtr msg;
  switch (req.answer) {
    case MsgKind::kBlockResponse: {
      auto block_req = std::make_shared<BlockRequestMsg>();
      block_req->block_hash = req.block_hash;
      block_req->request_id = request_id;
      msg = std::move(block_req);
      break;
    }
    case MsgKind::kProofResponse: {
      auto proof_req = std::make_shared<ProofRequestMsg>();
      proof_req->txid = req.txid;
      proof_req->block_hash = req.block_hash;
      proof_req->request_id = request_id;
      msg = std::move(proof_req);
      break;
    }
    default: {
      auto locate_req = std::make_shared<TxLocateRequestMsg>();
      locate_req->txid = req.txid;
      locate_req->request_id = request_id;
      msg = std::move(locate_req);
      break;
    }
  }
  ctx_.network().send(id_, target, std::move(msg));

  ctx_.simulator().after(req.timeout_us, [this, request_id, attempt] {
    const auto pending = requests_.find(request_id);
    // Only advance if this attempt is still the live one (a rejected answer
    // may already have moved the request along).
    if (pending == requests_.end() || pending->second.attempts != attempt) return;
    ++pending->second.timeouts;
    if (pending->second.answer == MsgKind::kBlockResponse) {
      ctx_.metrics().counter("retrieval.attempt_timeouts").inc();
    }
    next_attempt(request_id);
  });
}

void IciNode::on_answer(std::uint64_t request_id, const IciMessage& answer) {
  const auto it = requests_.find(request_id);
  if (it == requests_.end() || it->second.answer != answer.kind()) return;
  if (answer_ok(it->second, answer)) {
    finish_request(request_id, &answer);
  } else {
    next_attempt(request_id);  // miss or bad answer: the next candidate
  }
}

bool IciNode::answer_ok(const PendingRequest& request, const IciMessage& answer) {
  switch (answer.kind()) {
    case MsgKind::kBlockResponse: {
      const auto& block = static_cast<const BlockResponseMsg&>(answer).block;
      return block && block->hash() == request.block_hash && block->merkle_ok();
    }
    case MsgKind::kProofResponse: {
      // Verify against our own header before accepting — a lying server
      // cannot forge a path to the committed Merkle root.
      const auto& proof = static_cast<const ProofResponseMsg&>(answer).proof;
      if (!proof || proof->txid != request.txid || proof->block_hash != request.block_hash) {
        return false;
      }
      const auto header = store_.header_by_hash(request.block_hash);
      if (header && spv::verify_proof(*proof, *header)) return true;
      ctx_.metrics().counter("spv.bad_proofs").inc();
      return false;
    }
    default:  // a tx location: "found" and "not indexed" both conclude
      return true;
  }
}

void IciNode::finish_request(std::uint64_t request_id, const IciMessage* answer) {
  const auto it = requests_.find(request_id);
  PendingRequest request = std::move(it->second);
  requests_.erase(it);
  request.done(request, answer);
}

void IciNode::finish_fetch(FetchResult result, bool timed_out, const char* span,
                           const FetchCallback& cb) {
  if (result.block) {
    // Zero requests means the node reconstructed from its own shards.
    result.outcome = result.attempts == 0 ? FetchOutcome::kLocal : FetchOutcome::kRemote;
    ctx_.metrics().distribution("retrieval.latency_us").add(
        static_cast<double>(result.elapsed_us));
    obs::TraceSink::global().record_sim(span, static_cast<double>(result.elapsed_us));
  } else {
    // A fetch where every candidate answered "don't have it" is a genuine
    // not-found; any unanswered attempt makes the verdict a timeout (the
    // block may exist behind the silence).
    result.outcome = timed_out ? FetchOutcome::kTimeout : FetchOutcome::kNotFound;
    ctx_.metrics().counter("retrieval.misses").inc();
    ctx_.metrics().counter(timed_out ? "retrieval.timeouts" : "retrieval.not_found").inc();
  }
  if (cb) cb(result);
}

void IciNode::request_block(const Hash256& hash, std::vector<NodeId> candidates,
                            FetchCallback cb) {
  PendingRequest req;
  req.answer = MsgKind::kBlockResponse;
  req.block_hash = hash;
  req.candidates = std::move(candidates);
  req.rounds_left = static_cast<std::uint32_t>(ctx_.config().fetch_retry_rounds);
  req.done = [this, cb = std::move(cb)](const PendingRequest& r, const IciMessage* answer) {
    FetchResult result;
    if (answer != nullptr) result.block = static_cast<const BlockResponseMsg*>(answer)->block;
    result.elapsed_us = ctx_.simulator().now() - r.started;
    result.attempts = r.attempts;
    result.timeouts = r.timeouts;
    result.retry_rounds = r.rounds_used;
    finish_fetch(std::move(result), r.timeouts > 0, "retrieval/fetch", cb);
  };
  start_request(std::move(req));
}

void IciNode::fetch_block(const Hash256& hash, std::uint64_t height, FetchCallback cb) {
  // Local hit: no traffic; latency is the backend's cold-read cost (zero
  // for the in-memory backend, so mem runs stay event-identical).
  if (BlockRef ref = store_.block_by_hash(hash)) {
    ctx_.metrics().counter("retrieval.local_hits").inc();
    if (cb) {
      FetchResult result;
      result.block = ref.share();
      result.outcome = FetchOutcome::kLocal;
      result.elapsed_us = ref.io_delay_us;
      if (ref.io_delay_us > 0) {
        ctx_.simulator().after(ref.io_delay_us,
                               [cb = std::move(cb), result = std::move(result)] {
                                 cb(result);
                               });
      } else {
        cb(result);
      }
    }
    return;
  }
  if (ctx_.coded()) {
    fetch_block_coded(hash, height, std::move(cb), std::nullopt);
    return;
  }

  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  std::vector<NodeId> candidates = ctx_.fetch_candidates(hash, height, my_cluster, id_);
  // Nearest storer first.
  std::stable_sort(candidates.begin(), candidates.end(), [&](NodeId a, NodeId b) {
    return ctx_.network().propagation_us(id_, a) < ctx_.network().propagation_us(id_, b);
  });
  request_block(hash, std::move(candidates), std::move(cb));
}

void IciNode::pull_from(sim::NodeId source, const Hash256& hash) {
  request_block(hash, {source}, [this](const FetchResult& r) {
    if (r.block) {
      ctx_.metrics().counter("repair.copies_completed").inc();
      ctx_.metrics().counter("repair.bytes_copied").inc(r.block->serialized_size());
      store_.put(HashedBlock(r.block));
    } else {
      ctx_.metrics().counter("repair.copies_failed").inc();
    }
  });
}

// ---------------------------------------------------------------------------
// Coded mode
// ---------------------------------------------------------------------------

void IciNode::handle_block_shard(const BlockShardMsg& msg) {
  shard_store_.put(msg.block_hash, msg.shard);
  ctx_.metrics().counter("storage.shards_received").inc();
}

void IciNode::handle_shard_request(sim::NodeId from, const ShardRequestMsg& msg) {
  auto resp = std::make_shared<ShardResponseMsg>();
  resp->block_hash = msg.block_hash;
  resp->request_id = msg.request_id;
  // Serve whichever index this node holds (at most one per block in normal
  // operation; repair replacements also hold exactly one).
  const auto indices = shard_store_.indices(msg.block_hash);
  if (!indices.empty()) resp->shard = *shard_store_.get(msg.block_hash, indices.front());
  if (resp->shard && fault_.corrupt_serves && !resp->shard->bytes.empty()) {
    resp->shard->bytes[0] ^= 0xff;  // detected post-decode by the hash check
    ctx_.metrics().counter("fault.corrupt_serves").inc();
  }
  ctx_.network().send(id_, from, std::move(resp));
}

void IciNode::fetch_block_coded(const Hash256& hash, std::uint64_t height, FetchCallback cb,
                                std::optional<std::uint32_t> store_index) {
  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  const std::vector<NodeId> holders = ctx_.shard_holders(hash, height, my_cluster);

  const std::uint64_t rid = next_request_id_++;
  PendingCodedFetch pf;
  pf.hash = hash;
  pf.have.assign(ctx_.codec().total_shards(), false);
  pf.started = ctx_.simulator().now();
  pf.timeout_us = kFetchTimeoutUs;
  pf.rounds_left = static_cast<std::uint32_t>(ctx_.config().fetch_retry_rounds);
  pf.store_index = store_index;
  pf.cb = std::move(cb);

  // Seed with any shard this node already holds.
  for (std::uint32_t index : shard_store_.indices(hash)) {
    if (!pf.have[index]) {
      pf.have[index] = true;
      pf.collected.push_back(*shard_store_.get(hash, index));
    }
  }

  // Candidates: online assigned holders, nearest first (they may also be
  // repair replacements holding reconstructed shards).
  for (NodeId holder : holders) {
    if (holder == id_ || !ctx_.directory().online(holder)) continue;
    pf.candidates.push_back(holder);
  }
  std::stable_sort(pf.candidates.begin(), pf.candidates.end(), [&](NodeId a, NodeId b) {
    return ctx_.network().propagation_us(id_, a) < ctx_.network().propagation_us(id_, b);
  });
  if (ctx_.config().cross_cluster_fallback) {
    // Every cluster encodes the same payload with the same code, so a
    // sibling cluster's holders serve identical shards — append them as
    // last-resort candidates.
    for (std::size_t other = 0; other < ctx_.directory().cluster_count(); ++other) {
      if (other == my_cluster) continue;
      for (NodeId holder : ctx_.shard_holders(hash, height, other)) {
        if (holder != id_ && ctx_.directory().online(holder)) pf.candidates.push_back(holder);
      }
    }
  }

  coded_fetches_.emplace(rid, std::move(pf));
  pump_coded_fetch(rid);
  arm_coded_deadline(rid);
}

void IciNode::arm_coded_deadline(std::uint64_t request_id) {
  const auto it = coded_fetches_.find(request_id);
  if (it == coded_fetches_.end()) return;
  const std::uint32_t round = it->second.rounds_used;
  ctx_.simulator().after(it->second.timeout_us, [this, request_id, round] {
    const auto pending = coded_fetches_.find(request_id);
    if (pending == coded_fetches_.end()) return;
    PendingCodedFetch& pf = pending->second;
    if (pf.rounds_used != round) return;  // a newer round re-armed already
    if (pf.collected.size() < ctx_.codec().data_shards() && pf.rounds_left > 0 &&
        !pf.candidates.empty()) {
      // Retry-with-backoff: every in-flight request at the deadline counts
      // as timed out; re-walk the candidate list (collected shards are
      // kept, so only the shortfall is re-requested).
      --pf.rounds_left;
      ++pf.rounds_used;
      pf.timeouts += static_cast<std::uint32_t>(pf.outstanding);
      pf.outstanding = 0;
      pf.next_candidate = 0;
      pf.timeout_us =
          static_cast<sim::SimTime>(static_cast<double>(pf.timeout_us) * kFetchRetryBackoff);
      ctx_.metrics().counter("retrieval.retry_rounds").inc();
      pump_coded_fetch(request_id);
      arm_coded_deadline(request_id);
      return;
    }
    pf.timeouts += static_cast<std::uint32_t>(pf.outstanding);
    finish_coded_fetch(request_id);  // decide on whatever arrived
  });
}

void IciNode::pump_coded_fetch(std::uint64_t request_id) {
  const auto it = coded_fetches_.find(request_id);
  if (it == coded_fetches_.end()) return;
  PendingCodedFetch& pf = it->second;
  const std::size_t need = ctx_.codec().data_shards();

  if (pf.collected.size() >= need) {
    finish_coded_fetch(request_id);
    return;
  }
  // Ask exactly as many holders as still needed — over-asking would waste
  // bandwidth (each response carries a shard of ~block/d bytes).
  while (pf.collected.size() + pf.outstanding < need &&
         pf.next_candidate < pf.candidates.size()) {
    auto req = std::make_shared<ShardRequestMsg>();
    req->block_hash = pf.hash;
    req->request_id = request_id;
    ctx_.network().send(id_, pf.candidates[pf.next_candidate++], std::move(req));
    ++pf.outstanding;
    ++pf.attempts;
  }
  if (pf.outstanding == 0) finish_coded_fetch(request_id);  // exhausted
}

void IciNode::handle_shard_response(const ShardResponseMsg& msg) {
  const auto it = coded_fetches_.find(msg.request_id);
  if (it == coded_fetches_.end()) return;
  PendingCodedFetch& pf = it->second;
  if (pf.outstanding > 0) --pf.outstanding;
  if (msg.shard && msg.shard->index < pf.have.size() && !pf.have[msg.shard->index]) {
    pf.have[msg.shard->index] = true;
    pf.collected.push_back(*msg.shard);
  }
  // Either finishes (enough shards / exhausted) or tops up the in-flight
  // requests after a miss or duplicate index.
  pump_coded_fetch(msg.request_id);
}

void IciNode::finish_coded_fetch(std::uint64_t request_id) {
  const auto it = coded_fetches_.find(request_id);
  if (it == coded_fetches_.end()) return;
  const PendingCodedFetch pf = std::move(it->second);
  coded_fetches_.erase(it);

  FetchResult result;
  if (pf.collected.size() >= ctx_.codec().data_shards()) {
    const auto payload = ctx_.codec().reconstruct(pf.collected);
    if (payload) {
      try {
        Block block = Block::deserialize(ByteSpan(payload->data(), payload->size()));
        if (block.hash() == pf.hash && block.merkle_ok()) {
          result.block = std::make_shared<const Block>(std::move(block));
        }
      } catch (const DecodeError&) {
        // corrupt reconstruction — treated as a miss below
      }
    }
  }
  if (pf.store_index && result.block) {
    // Repair: re-encode and keep only the assigned shard.
    const Bytes payload = result.block->serialize();
    const auto shards = ctx_.codec().encode(ByteSpan(payload.data(), payload.size()));
    if (*pf.store_index < shards.size()) {
      shard_store_.put(pf.hash, shards[*pf.store_index]);
      ctx_.metrics().counter("repair.shards_completed").inc();
    }
  } else if (pf.store_index) {
    ctx_.metrics().counter("repair.shards_failed").inc();
  }
  result.elapsed_us = ctx_.simulator().now() - pf.started;
  result.attempts = pf.attempts;
  result.timeouts = pf.timeouts;
  result.retry_rounds = pf.rounds_used;
  finish_fetch(std::move(result), pf.timeouts > 0 || pf.outstanding > 0,
               "retrieval/coded_fetch", pf.cb);
}

void IciNode::repair_shard(const Hash256& hash, std::uint64_t height,
                           std::uint32_t store_index) {
  fetch_block_coded(hash, height, nullptr, store_index);
}

// ---------------------------------------------------------------------------
// SPV proofs and tx location
// ---------------------------------------------------------------------------

void IciNode::handle_proof_request(sim::NodeId from, const ProofRequestMsg& msg) {
  auto resp = std::make_shared<ProofResponseMsg>();
  resp->request_id = msg.request_id;
  const BlockRef ref = store_.block_by_hash(msg.block_hash);
  if (ref) {
    resp->proof = spv::build_proof(*ref, msg.txid);
  }
  send_after(from, std::move(resp), ref.io_delay_us);
}

void IciNode::fetch_proof(const Hash256& txid, const Hash256& hash, std::uint64_t height,
                          ProofCallback cb) {
  // Local body: build directly (a cold read defers the answer by its IO
  // cost, which the reported elapsed time then carries).
  if (BlockRef ref = store_.block_by_hash(hash)) {
    if (cb) {
      if (ref.io_delay_us > 0) {
        ctx_.simulator().after(
            ref.io_delay_us,
            [cb = std::move(cb), body = ref.share(), txid, d = ref.io_delay_us] {
              cb(spv::build_proof(*body, txid), d);
            });
      } else {
        cb(spv::build_proof(*ref, txid), 0);
      }
    }
    return;
  }
  if (ctx_.coded()) {
    // Reconstruct the body, then build the proof locally.
    const sim::SimTime started = ctx_.simulator().now();
    fetch_block_coded(
        hash, height,
        [this, txid, cb = std::move(cb), started](const FetchResult& r) {
          if (!cb) return;
          if (!r.block) {
            cb(std::nullopt, ctx_.simulator().now() - started);
            return;
          }
          cb(spv::build_proof(*r.block, txid), ctx_.simulator().now() - started);
        },
        std::nullopt);
    return;
  }

  PendingRequest req;
  req.answer = MsgKind::kProofResponse;
  req.block_hash = hash;
  req.txid = txid;
  req.candidates = ctx_.fetch_candidates(hash, height, ctx_.directory().cluster_of(id_), id_);
  req.done = [this, cb = std::move(cb)](const PendingRequest& r, const IciMessage* answer) {
    const sim::SimTime elapsed = ctx_.simulator().now() - r.started;
    if (answer == nullptr) {
      ctx_.metrics().counter("spv.misses").inc();
      if (cb) cb(std::nullopt, elapsed);
      return;
    }
    ctx_.metrics().distribution("spv.latency_us").add(static_cast<double>(elapsed));
    if (cb) cb(static_cast<const ProofResponseMsg*>(answer)->proof, elapsed);
  };
  start_request(std::move(req));
}

void IciNode::handle_tx_locate_request(sim::NodeId from, const TxLocateRequestMsg& msg) {
  auto resp = std::make_shared<TxLocateResponseMsg>();
  resp->request_id = msg.request_id;
  const auto it = tx_index_.find(msg.txid);
  if (it != tx_index_.end()) {
    resp->found = true;
    resp->block_hash = it->second.block_hash;
    resp->height = it->second.height;
  }
  ctx_.network().send(id_, from, std::move(resp));
}

void IciNode::locate_tx(const Hash256& txid, LocateCallback cb) {
  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  const NodeId owner = ctx_.utxo_owner(OutPoint{txid, 0}, my_cluster);

  if (owner == id_) {
    const auto it = tx_index_.find(txid);
    if (it != tx_index_.end()) {
      if (cb) cb(true, it->second.block_hash, it->second.height);
    } else {
      if (cb) cb(false, Hash256{}, 0);
    }
    return;
  }

  PendingRequest req;
  req.answer = MsgKind::kTxLocateResponse;
  req.txid = txid;
  req.candidates = {owner};
  req.done = [this, cb = std::move(cb)](const PendingRequest&, const IciMessage* answer) {
    const auto* resp = static_cast<const TxLocateResponseMsg*>(answer);
    if (resp == nullptr) {
      // Owner unreachable: report as not found (the caller can retry later).
      ctx_.metrics().counter("locate.timeouts").inc();
      if (cb) cb(false, Hash256{}, 0);
      return;
    }
    ctx_.metrics().counter(resp->found ? "locate.hits" : "locate.misses").inc();
    if (cb) cb(resp->found, resp->block_hash, resp->height);
  };
  start_request(std::move(req));
}

void IciNode::locate_and_prove(const Hash256& txid, ProofCallback cb) {
  const sim::SimTime started = ctx_.simulator().now();
  locate_tx(txid, [this, txid, cb = std::move(cb), started](bool found, Hash256 hash,
                                                            std::uint64_t height) {
    if (!found) {
      if (cb) cb(std::nullopt, ctx_.simulator().now() - started);
      return;
    }
    fetch_proof(txid, hash, height,
                [this, cb, started](std::optional<spv::TxInclusionProof> proof, sim::SimTime) {
                  if (cb) cb(std::move(proof), ctx_.simulator().now() - started);
                });
  });
}

// ---------------------------------------------------------------------------
// Streaming bulk-sync bootstrap (docs/BOOTSTRAP.md)
// ---------------------------------------------------------------------------

bool IciNode::sync_coded() const { return ctx_.coded(); }

void IciNode::sync_commit_header(const BlockHeader& header, const Hash256& hash) {
  store_.put(StoredBlock::header_only(header, hash));
}

bool IciNode::sync_wants_body(const Hash256& hash, std::uint64_t height) {
  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  if (ctx_.coded()) {
    const std::vector<NodeId> holders = ctx_.shard_holders(hash, height, my_cluster);
    return std::find(holders.begin(), holders.end(), id_) != holders.end();
  }
  // Assignment over the full membership (which now includes this node) —
  // the joiner pulls exactly the bodies the rendezvous gives it.
  const std::vector<NodeId> storers =
      ctx_.storers_of(hash, height, my_cluster, /*online_only=*/false);
  return std::find(storers.begin(), storers.end(), id_) != storers.end();
}

void IciNode::sync_commit_body(const std::shared_ptr<const Block>& block) {
  store_.put(HashedBlock(block));
}

std::vector<sim::NodeId> IciNode::sync_body_candidates(const Hash256& hash,
                                                       std::uint64_t height) {
  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  const std::vector<NodeId> ranked =
      ctx_.fetch_candidates(hash, height, my_cluster, id_);
  return {ranked.begin(), ranked.end()};
}

void IciNode::sync_fetch_assigned_shard(
    const Hash256& hash, std::uint64_t height,
    std::function<void(std::shared_ptr<const Block>)> done) {
  const std::size_t my_cluster = ctx_.directory().cluster_of(id_);
  const std::vector<NodeId> holders = ctx_.shard_holders(hash, height, my_cluster);
  std::optional<std::uint32_t> index;
  for (std::uint32_t i = 0; i < holders.size(); ++i) {
    if (holders[i] == id_) {
      index = i;
      break;
    }
  }
  // Collect >=d shards from the cluster, reconstruct, keep our shard.
  fetch_block_coded(
      hash, height,
      [done = std::move(done)](const FetchResult& r) {
        if (done) done(r.block);
      },
      index);
}

}  // namespace ici::core
