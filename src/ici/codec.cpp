#include "ici/codec.h"

#include <stdexcept>

#include "obs/trace.h"

namespace ici::core {

namespace {

void put_hash(ByteWriter& w, const Hash256& h) { w.raw(h.span()); }

Hash256 get_hash(ByteReader& r) {
  const Bytes raw = r.raw(32);
  Digest256 d{};
  std::copy(raw.begin(), raw.end(), d.begin());
  return Hash256(d);
}

void put_outpoint(ByteWriter& w, const OutPoint& op) {
  put_hash(w, op.txid);
  w.u32(op.index);
}

OutPoint get_outpoint(ByteReader& r) {
  OutPoint op;
  op.txid = get_hash(r);
  op.index = r.u32();
  return op;
}

void put_pub(ByteWriter& w, const PublicKey& pub) { w.raw(ByteSpan(pub.data(), pub.size())); }

PublicKey get_pub(ByteReader& r) {
  const Bytes raw = r.raw(32);
  PublicKey pub;
  std::copy(raw.begin(), raw.end(), pub.begin());
  return pub;
}

void put_sig(ByteWriter& w, const Signature& sig) { w.raw(ByteSpan(sig.data(), sig.size())); }

Signature get_sig(ByteReader& r) {
  const Bytes raw = r.raw(64);
  Signature sig;
  std::copy(raw.begin(), raw.end(), sig.begin());
  return sig;
}

void put_shard(ByteWriter& w, const erasure::Shard& shard) {
  w.u32(shard.index);
  w.u32(static_cast<std::uint32_t>(shard.bytes.size()));
  w.raw(ByteSpan(shard.bytes.data(), shard.bytes.size()));
}

erasure::Shard get_shard(ByteReader& r) {
  erasure::Shard shard;
  shard.index = r.u32();
  const std::uint32_t len = r.u32();
  shard.bytes = r.raw(len);
  return shard;
}

// -- per-kind body encoders ---------------------------------------------------

void encode_body(ByteWriter& w, const FullBlockMsg& m) {
  w.u8(m.for_verification ? 1 : 0);
  m.block->serialize_into(w);
}

void encode_body(ByteWriter& w, const SliceMsg& m) {
  m.header.serialize_into(w);
  put_hash(w, m.block_hash);
  w.u32(m.first_index);
  w.u32(m.total_txs);
  for (const Transaction& tx : m.txs()) {
    w.u32(static_cast<std::uint32_t>(tx.serialized_size()));
    tx.serialize_into(w);
  }
}

void encode_body(ByteWriter& w, const UtxoLookupMsg& m) {
  put_hash(w, m.block_hash);
  for (const OutPoint& op : m.outpoints) put_outpoint(w, op);
}

void encode_body(ByteWriter& w, const UtxoResponseMsg& m) {
  put_hash(w, m.block_hash);
  for (const UtxoResponseEntry& e : m.entries) {
    put_outpoint(w, e.outpoint);
    w.u8(e.exists ? 1 : 0);
    w.u64(e.output.value);
    put_pub(w, e.output.recipient);
  }
}

void encode_body(ByteWriter& w, const VoteMsg& m) {
  put_hash(w, m.block_hash);
  w.u8(m.approve ? 1 : 0);
  put_hash(w, m.slice_digest);
  w.u8(m.challenged_txid ? 1 : 0);
  if (m.challenged_txid) put_hash(w, *m.challenged_txid);
  put_pub(w, m.voter);
  put_sig(w, m.sig);
}

void encode_body(ByteWriter& w, const CommitMsg& m) {
  m.header.serialize_into(w);
  put_hash(w, m.block_hash);
  w.u32(static_cast<std::uint32_t>(m.spent.size()));
  w.u32(static_cast<std::uint32_t>(m.created.size()));
  for (const OutPoint& op : m.spent) put_outpoint(w, op);
  for (const auto& [op, out] : m.created) {
    put_outpoint(w, op);
    w.u64(out.value);
    put_pub(w, out.recipient);
  }
}

void encode_body(ByteWriter& w, const BlockRequestMsg& m) {
  put_hash(w, m.block_hash);
  w.u64(m.request_id);
}

void encode_body(ByteWriter& w, const BlockResponseMsg& m) {
  put_hash(w, m.block_hash);
  w.u64(m.request_id);
  w.u8(m.block ? 1 : 0);
  if (m.block) m.block->serialize_into(w);
}

void encode_body(ByteWriter& w, const BlockShardMsg& m) {
  put_hash(w, m.block_hash);
  w.u64(m.height);
  put_shard(w, m.shard);
}

void encode_body(ByteWriter& w, const ShardRequestMsg& m) {
  put_hash(w, m.block_hash);
  w.u64(m.request_id);
}

void encode_body(ByteWriter& w, const ShardResponseMsg& m) {
  put_hash(w, m.block_hash);
  w.u64(m.request_id);
  w.u8(m.shard ? 1 : 0);
  if (m.shard) put_shard(w, *m.shard);
}

void encode_body(ByteWriter& w, const ProofRequestMsg& m) {
  put_hash(w, m.txid);
  put_hash(w, m.block_hash);
  w.u64(m.request_id);
}

void encode_body(ByteWriter& w, const ProofResponseMsg& m) {
  w.u64(m.request_id);
  w.u8(m.proof ? 1 : 0);
  if (m.proof) {
    put_hash(w, m.proof->txid);
    put_hash(w, m.proof->block_hash);
    w.u64(m.proof->height);
    w.u32(m.proof->tx_index);
    for (const MerkleStep& step : m.proof->path) {
      put_hash(w, step.sibling);
      w.u8(step.sibling_is_right ? 1 : 0);
    }
  }
}

void encode_body(ByteWriter& w, const TxLocateRequestMsg& m) {
  put_hash(w, m.txid);
  w.u64(m.request_id);
}

void encode_body(ByteWriter& w, const TxLocateResponseMsg& m) {
  w.u64(m.request_id);
  w.u8(m.found ? 1 : 0);
  put_hash(w, m.block_hash);
  w.u64(m.height);
}

// -- per-kind body decoders ---------------------------------------------------

std::shared_ptr<IciMessage> decode_body(MsgKind kind, ByteReader& r) {
  switch (kind) {
    case MsgKind::kFullBlock: {
      const bool verify = r.u8() != 0;
      const Bytes rest = r.raw(r.remaining());
      auto block =
          std::make_shared<const Block>(Block::deserialize(ByteSpan(rest.data(), rest.size())));
      return std::make_shared<FullBlockMsg>(std::move(block), verify);
    }
    case MsgKind::kSlice: {
      const Bytes hdr = r.raw(BlockHeader::kWireSize);
      const BlockHeader header = BlockHeader::deserialize(ByteSpan(hdr.data(), hdr.size()));
      const Hash256 block_hash = get_hash(r);
      const std::uint32_t first_index = r.u32();
      const std::uint32_t total_txs = r.u32();
      std::vector<Transaction> txs;
      while (!r.done()) {
        const Bytes enc = r.blob();
        txs.push_back(Transaction::deserialize(ByteSpan(enc.data(), enc.size())));
      }
      return std::make_shared<SliceMsg>(header, block_hash, first_index, total_txs,
                                        std::move(txs));
    }
    case MsgKind::kUtxoLookup: {
      auto m = std::make_shared<UtxoLookupMsg>();
      m->block_hash = get_hash(r);
      while (!r.done()) m->outpoints.push_back(get_outpoint(r));
      return m;
    }
    case MsgKind::kUtxoResponse: {
      auto m = std::make_shared<UtxoResponseMsg>();
      m->block_hash = get_hash(r);
      while (!r.done()) {
        UtxoResponseEntry e;
        e.outpoint = get_outpoint(r);
        e.exists = r.u8() != 0;
        e.output.value = r.u64();
        e.output.recipient = get_pub(r);
        m->entries.push_back(e);
      }
      return m;
    }
    case MsgKind::kVote: {
      auto m = std::make_shared<VoteMsg>();
      m->block_hash = get_hash(r);
      m->approve = r.u8() != 0;
      m->slice_digest = get_hash(r);
      if (r.u8() != 0) m->challenged_txid = get_hash(r);
      m->voter = get_pub(r);
      m->sig = get_sig(r);
      return m;
    }
    case MsgKind::kCommit: {
      auto m = std::make_shared<CommitMsg>();
      const Bytes hdr = r.raw(BlockHeader::kWireSize);
      m->header = BlockHeader::deserialize(ByteSpan(hdr.data(), hdr.size()));
      m->block_hash = get_hash(r);
      const std::uint32_t n_spent = r.u32();
      const std::uint32_t n_created = r.u32();
      for (std::uint32_t i = 0; i < n_spent; ++i) m->spent.push_back(get_outpoint(r));
      for (std::uint32_t i = 0; i < n_created; ++i) {
        const OutPoint op = get_outpoint(r);
        TxOutput out;
        out.value = r.u64();
        out.recipient = get_pub(r);
        m->created.emplace_back(op, out);
      }
      return m;
    }
    case MsgKind::kBlockRequest: {
      auto m = std::make_shared<BlockRequestMsg>();
      m->block_hash = get_hash(r);
      m->request_id = r.u64();
      return m;
    }
    case MsgKind::kBlockResponse: {
      auto m = std::make_shared<BlockResponseMsg>();
      m->block_hash = get_hash(r);
      m->request_id = r.u64();
      if (r.u8() != 0) {
        const Bytes rest = r.raw(r.remaining());
        m->block = std::make_shared<const Block>(
            Block::deserialize(ByteSpan(rest.data(), rest.size())));
      }
      return m;
    }
    case MsgKind::kBlockShard: {
      auto m = std::make_shared<BlockShardMsg>();
      m->block_hash = get_hash(r);
      m->height = r.u64();
      m->shard = get_shard(r);
      return m;
    }
    case MsgKind::kShardRequest: {
      auto m = std::make_shared<ShardRequestMsg>();
      m->block_hash = get_hash(r);
      m->request_id = r.u64();
      return m;
    }
    case MsgKind::kShardResponse: {
      auto m = std::make_shared<ShardResponseMsg>();
      m->block_hash = get_hash(r);
      m->request_id = r.u64();
      if (r.u8() != 0) m->shard = get_shard(r);
      return m;
    }
    case MsgKind::kProofRequest: {
      auto m = std::make_shared<ProofRequestMsg>();
      m->txid = get_hash(r);
      m->block_hash = get_hash(r);
      m->request_id = r.u64();
      return m;
    }
    case MsgKind::kProofResponse: {
      auto m = std::make_shared<ProofResponseMsg>();
      m->request_id = r.u64();
      if (r.u8() != 0) {
        spv::TxInclusionProof proof;
        proof.txid = get_hash(r);
        proof.block_hash = get_hash(r);
        proof.height = r.u64();
        proof.tx_index = r.u32();
        while (!r.done()) {
          MerkleStep step;
          step.sibling = get_hash(r);
          step.sibling_is_right = r.u8() != 0;
          proof.path.push_back(step);
        }
        m->proof = std::move(proof);
      }
      return m;
    }
    case MsgKind::kTxLocateRequest: {
      auto m = std::make_shared<TxLocateRequestMsg>();
      m->txid = get_hash(r);
      m->request_id = r.u64();
      return m;
    }
    case MsgKind::kTxLocateResponse: {
      auto m = std::make_shared<TxLocateResponseMsg>();
      m->request_id = r.u64();
      m->found = r.u8() != 0;
      m->block_hash = get_hash(r);
      m->height = r.u64();
      return m;
    }
  }
  throw DecodeError("decode_message: unknown kind");
}

}  // namespace

Bytes encode_message(const IciMessage& msg) {
  const obs::Span span("codec/encode");
  ByteWriter w(msg.wire_size() + 1);
  w.u8(static_cast<std::uint8_t>(msg.kind()));
  switch (msg.kind()) {
    case MsgKind::kFullBlock:
      encode_body(w, static_cast<const FullBlockMsg&>(msg));
      break;
    case MsgKind::kSlice:
      encode_body(w, static_cast<const SliceMsg&>(msg));
      break;
    case MsgKind::kUtxoLookup:
      encode_body(w, static_cast<const UtxoLookupMsg&>(msg));
      break;
    case MsgKind::kUtxoResponse:
      encode_body(w, static_cast<const UtxoResponseMsg&>(msg));
      break;
    case MsgKind::kVote:
      encode_body(w, static_cast<const VoteMsg&>(msg));
      break;
    case MsgKind::kCommit:
      encode_body(w, static_cast<const CommitMsg&>(msg));
      break;
    case MsgKind::kBlockRequest:
      encode_body(w, static_cast<const BlockRequestMsg&>(msg));
      break;
    case MsgKind::kBlockResponse:
      encode_body(w, static_cast<const BlockResponseMsg&>(msg));
      break;
    case MsgKind::kBlockShard:
      encode_body(w, static_cast<const BlockShardMsg&>(msg));
      break;
    case MsgKind::kShardRequest:
      encode_body(w, static_cast<const ShardRequestMsg&>(msg));
      break;
    case MsgKind::kShardResponse:
      encode_body(w, static_cast<const ShardResponseMsg&>(msg));
      break;
    case MsgKind::kProofRequest:
      encode_body(w, static_cast<const ProofRequestMsg&>(msg));
      break;
    case MsgKind::kProofResponse:
      encode_body(w, static_cast<const ProofResponseMsg&>(msg));
      break;
    case MsgKind::kTxLocateRequest:
      encode_body(w, static_cast<const TxLocateRequestMsg&>(msg));
      break;
    case MsgKind::kTxLocateResponse:
      encode_body(w, static_cast<const TxLocateResponseMsg&>(msg));
      break;
  }
  return w.take();
}

std::shared_ptr<IciMessage> decode_message(ByteSpan data) {
  const obs::Span span("codec/decode");
  ByteReader r(data);
  const auto kind = static_cast<MsgKind>(r.u8());
  if (kind > MsgKind::kTxLocateResponse) throw DecodeError("decode_message: unknown kind");
  auto msg = decode_body(kind, r);
  r.expect_done("IciMessage");
  return msg;
}

}  // namespace ici::core
