// Wire messages of the ICIStrategy protocol. Each message reports a
// realistic serialized size — the simulator charges exactly these bytes, so
// the communication-overhead experiments are byte-accurate.
//
// Dissemination flow (DESIGN.md D4/D5):
//   proposer --FullBlock--> cluster head (one per cluster)
//   head     --Slice-----> each online member (1/m of the body each)
//   member   --UtxoLookup-> shard owners, --UtxoResponse-- back
//   member   --Vote------> head
//   head     --FullBlock--> assigned storers, --Commit(delta)--> members
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "chain/block.h"
#include "erasure/rs.h"
#include "sim/network.h"
#include "spv/proof.h"

namespace ici::core {

enum class MsgKind : std::uint8_t {
  kFullBlock,
  kSlice,
  kUtxoLookup,
  kUtxoResponse,
  kVote,
  kCommit,
  kBlockRequest,
  kBlockResponse,
  kBlockShard,
  kShardRequest,
  kShardResponse,
  kProofRequest,
  kProofResponse,
  kTxLocateRequest,
  kTxLocateResponse,
};

struct IciMessage : sim::MessageBase {
  [[nodiscard]] virtual MsgKind kind() const = 0;
};

/// Full block body: proposer→head and head→storer. Carries a shared handle —
/// blocks are immutable and the simulator charges wire bytes regardless.
struct FullBlockMsg final : IciMessage {
  std::shared_ptr<const Block> block;
  /// True when the receiver should treat this as the start of cluster
  /// verification (head role) rather than a storage hand-off.
  bool for_verification = false;

  FullBlockMsg(std::shared_ptr<const Block> b, bool verify)
      : block(std::move(b)), for_verification(verify) {}
  [[nodiscard]] MsgKind kind() const override { return MsgKind::kFullBlock; }
  [[nodiscard]] std::size_t wire_size() const override { return block->serialized_size() + 1; }
  [[nodiscard]] const char* type_name() const override { return "FullBlock"; }
};

/// A member's verification slice: the header plus a contiguous tx range. The
/// head's slices view its block, so no tx is copied per member; a decoded
/// slice owns its txs. Either way the wire bytes are the same.
struct SliceMsg final : IciMessage {
  /// Views txs [first, first + count) of `block`.
  SliceMsg(std::shared_ptr<const Block> block, const Hash256& hash, std::size_t first,
           std::size_t count)
      : header(block->header()),
        block_hash(hash),
        first_index(static_cast<std::uint32_t>(first)),
        total_txs(static_cast<std::uint32_t>(block->txs().size())),
        block_(std::move(block)),
        count_(count) {
    if (first + count > total_txs) throw std::out_of_range("SliceMsg: range past the block");
  }
  /// Owns `txs` (what the codec decodes).
  SliceMsg(const BlockHeader& hdr, const Hash256& hash, std::uint32_t first,
           std::uint32_t total, std::vector<Transaction> txs)
      : header(hdr), block_hash(hash), first_index(first), total_txs(total),
        owned_(std::move(txs)) {}

  BlockHeader header;
  Hash256 block_hash;
  std::uint32_t first_index = 0;  // index of txs().front() within the block
  std::uint32_t total_txs = 0;

  [[nodiscard]] std::span<const Transaction> txs() const {
    if (!block_) return owned_;
    return std::span<const Transaction>(block_->txs()).subspan(first_index, count_);
  }

  [[nodiscard]] MsgKind kind() const override { return MsgKind::kSlice; }
  [[nodiscard]] std::size_t wire_size() const override {
    std::size_t sz = BlockHeader::kWireSize + 32 + 8;
    for (const Transaction& tx : txs()) sz += 4 + tx.serialized_size();
    return sz;
  }
  [[nodiscard]] const char* type_name() const override { return "Slice"; }

 private:
  std::shared_ptr<const Block> block_;  // the viewed block; null when decoded
  std::size_t count_ = 0;
  std::vector<Transaction> owned_;
};

/// Asks a UTXO-shard owner whether outpoints exist (and their outputs).
struct UtxoLookupMsg final : IciMessage {
  Hash256 block_hash;  // verification context
  std::vector<OutPoint> outpoints;

  [[nodiscard]] MsgKind kind() const override { return MsgKind::kUtxoLookup; }
  [[nodiscard]] std::size_t wire_size() const override { return 32 + outpoints.size() * 36; }
  [[nodiscard]] const char* type_name() const override { return "UtxoLookup"; }
};

struct UtxoResponseEntry {
  OutPoint outpoint;
  bool exists = false;
  TxOutput output;  // valid when exists
};

struct UtxoResponseMsg final : IciMessage {
  Hash256 block_hash;
  std::vector<UtxoResponseEntry> entries;

  [[nodiscard]] MsgKind kind() const override { return MsgKind::kUtxoResponse; }
  [[nodiscard]] std::size_t wire_size() const override {
    return 32 + entries.size() * (36 + 1 + 8 + 32);
  }
  [[nodiscard]] const char* type_name() const override { return "UtxoResponse"; }
};

/// Member's verdict on its slice, signed. A rejection should carry a
/// *challenge*: the txid the member found invalid. The head re-verifies the
/// challenged transaction itself — a confirmed challenge vetoes the block
/// regardless of approvals, while an unverifiable one is ignored, so honest
/// detection wins and byzantine rejections gain no veto power.
struct VoteMsg final : IciMessage {
  Hash256 block_hash;
  bool approve = false;
  /// Commits the voter to the txids it verified.
  Hash256 slice_digest;
  std::optional<Hash256> challenged_txid;  // only meaningful when !approve
  PublicKey voter{};
  Signature sig{};

  [[nodiscard]] MsgKind kind() const override { return MsgKind::kVote; }
  [[nodiscard]] std::size_t wire_size() const override {
    return 32 + 1 + 32 + 1 + (challenged_txid ? 32 : 0) + 32 + 64;
  }
  [[nodiscard]] const char* type_name() const override { return "Vote"; }
};

/// Commit notice carrying the receiver's UTXO-shard delta.
struct CommitMsg final : IciMessage {
  BlockHeader header;
  Hash256 block_hash;
  std::vector<OutPoint> spent;                                // owned by receiver
  std::vector<std::pair<OutPoint, TxOutput>> created;         // owned by receiver

  [[nodiscard]] MsgKind kind() const override { return MsgKind::kCommit; }
  [[nodiscard]] std::size_t wire_size() const override {
    // header + hash + two u32 array counts + entries.
    return BlockHeader::kWireSize + 32 + 8 + spent.size() * 36 + created.size() * (36 + 40);
  }
  [[nodiscard]] const char* type_name() const override { return "Commit"; }
};

/// Historical block fetch (retrieval protocol + bootstrap body download).
struct BlockRequestMsg final : IciMessage {
  Hash256 block_hash;
  std::uint64_t request_id = 0;

  [[nodiscard]] MsgKind kind() const override { return MsgKind::kBlockRequest; }
  [[nodiscard]] std::size_t wire_size() const override { return 32 + 8; }
  [[nodiscard]] const char* type_name() const override { return "BlockRequest"; }
};

struct BlockResponseMsg final : IciMessage {
  Hash256 block_hash;
  std::uint64_t request_id = 0;
  std::shared_ptr<const Block> block;  // null = not stored here

  [[nodiscard]] MsgKind kind() const override { return MsgKind::kBlockResponse; }
  [[nodiscard]] std::size_t wire_size() const override {
    return 32 + 8 + 1 + (block ? block->serialized_size() : 0);
  }
  [[nodiscard]] const char* type_name() const override { return "BlockResponse"; }
};

/// Coded mode: one Reed-Solomon shard of a committed block, head → holder.
struct BlockShardMsg final : IciMessage {
  Hash256 block_hash;
  std::uint64_t height = 0;
  erasure::Shard shard;

  [[nodiscard]] MsgKind kind() const override { return MsgKind::kBlockShard; }
  [[nodiscard]] std::size_t wire_size() const override {
    return 32 + 8 + 8 + shard.bytes.size();
  }
  [[nodiscard]] const char* type_name() const override { return "BlockShard"; }
};

/// Coded mode: ask a holder for its shard of a block.
struct ShardRequestMsg final : IciMessage {
  Hash256 block_hash;
  std::uint64_t request_id = 0;

  [[nodiscard]] MsgKind kind() const override { return MsgKind::kShardRequest; }
  [[nodiscard]] std::size_t wire_size() const override { return 32 + 8; }
  [[nodiscard]] const char* type_name() const override { return "ShardRequest"; }
};

struct ShardResponseMsg final : IciMessage {
  Hash256 block_hash;
  std::uint64_t request_id = 0;
  std::optional<erasure::Shard> shard;  // nullopt = not held here

  [[nodiscard]] MsgKind kind() const override { return MsgKind::kShardResponse; }
  [[nodiscard]] std::size_t wire_size() const override {
    return 32 + 8 + 1 + (shard ? 8 + shard->bytes.size() : 0);
  }
  [[nodiscard]] const char* type_name() const override { return "ShardResponse"; }
};

/// SPV: ask a body holder for a Merkle inclusion proof of `txid` in the
/// block at `block_hash`.
struct ProofRequestMsg final : IciMessage {
  Hash256 txid;
  Hash256 block_hash;
  std::uint64_t request_id = 0;

  [[nodiscard]] MsgKind kind() const override { return MsgKind::kProofRequest; }
  [[nodiscard]] std::size_t wire_size() const override { return 32 + 32 + 8; }
  [[nodiscard]] const char* type_name() const override { return "ProofRequest"; }
};

struct ProofResponseMsg final : IciMessage {
  std::uint64_t request_id = 0;
  std::optional<spv::TxInclusionProof> proof;  // nullopt = cannot serve

  [[nodiscard]] MsgKind kind() const override { return MsgKind::kProofResponse; }
  [[nodiscard]] std::size_t wire_size() const override {
    return 8 + 1 + (proof ? proof->wire_size() : 0);
  }
  [[nodiscard]] const char* type_name() const override { return "ProofResponse"; }
};

/// Transaction location: "which block holds txid?" — answered by the
/// cluster member that rendezvous-owns the tx's first output, which indexes
/// txid → (block, height) from the commit deltas it already receives.
struct TxLocateRequestMsg final : IciMessage {
  Hash256 txid;
  std::uint64_t request_id = 0;

  [[nodiscard]] MsgKind kind() const override { return MsgKind::kTxLocateRequest; }
  [[nodiscard]] std::size_t wire_size() const override { return 32 + 8; }
  [[nodiscard]] const char* type_name() const override { return "TxLocateRequest"; }
};

struct TxLocateResponseMsg final : IciMessage {
  std::uint64_t request_id = 0;
  bool found = false;
  Hash256 block_hash;        // valid when found
  std::uint64_t height = 0;  // valid when found

  [[nodiscard]] MsgKind kind() const override { return MsgKind::kTxLocateResponse; }
  [[nodiscard]] std::size_t wire_size() const override { return 8 + 1 + 32 + 8; }
  [[nodiscard]] const char* type_name() const override { return "TxLocateResponse"; }
};

}  // namespace ici::core
