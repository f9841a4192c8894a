// Wire-codec tests: every protocol message round-trips, and its encoding is
// exactly wire_size() + 1 bytes — the invariant tying the simulator's
// byte-accurate traffic accounting to a real serialization.
#include "ici/codec.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>

#include "chain/workload.h"
#include "common/rng.h"

namespace ici::core {
namespace {

std::shared_ptr<const Block> sample_block() {
  ChainGenConfig cfg;
  cfg.blocks = 1;
  cfg.txs_per_block = 5;
  static const Chain chain = ChainGenerator(cfg).generate();
  return std::make_shared<const Block>(chain.at_height(1));
}

/// Round-trips `msg` and returns the decoded message after checking the
/// size invariant.
template <typename T>
std::shared_ptr<T> roundtrip(const T& msg) {
  const Bytes wire = encode_message(msg);
  EXPECT_EQ(wire.size(), msg.wire_size() + 1)
      << msg.type_name() << ": encoding does not match the charged wire size";
  auto decoded = decode_message(ByteSpan(wire.data(), wire.size()));
  EXPECT_EQ(decoded->kind(), msg.kind());
  auto typed = std::dynamic_pointer_cast<T>(decoded);
  EXPECT_NE(typed, nullptr);
  return typed;
}

TEST(Codec, FullBlock) {
  FullBlockMsg msg(sample_block(), true);
  auto back = roundtrip(msg);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->for_verification);
  EXPECT_EQ(back->block->hash(), msg.block->hash());
  EXPECT_EQ(back->block->txs().size(), msg.block->txs().size());
}

TEST(Codec, Slice) {
  auto block = sample_block();
  const SliceMsg msg(block, block->hash(), 2, 2);
  auto back = roundtrip(msg);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->header.hash(), msg.header.hash());
  EXPECT_EQ(back->first_index, 2u);
  EXPECT_EQ(back->total_txs, 6u);
  ASSERT_EQ(back->txs().size(), 2u);
  EXPECT_EQ(back->txs()[0].txid(), msg.txs()[0].txid());
}

TEST(Codec, SliceEmpty) {
  auto block = sample_block();
  const SliceMsg msg(block, block->hash(), 0, 0);
  auto back = roundtrip(msg);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->txs().empty());
}

TEST(Codec, SliceViewRoundTripsAsOwnedTxs) {
  // A head's slice views txs [1, 3) of its block without copying them; the
  // decoded slice owns its txs and reads the same ones.
  auto block = sample_block();
  ASSERT_EQ(block->txs().size(), 6u);
  const SliceMsg view(block, block->hash(), 1, 2);
  ASSERT_EQ(view.txs().size(), 2u);
  EXPECT_EQ(view.txs().data(), block->txs().data() + 1);
  EXPECT_EQ(view.first_index, 1u);
  EXPECT_EQ(view.total_txs, 6u);
  EXPECT_THROW(SliceMsg(block, block->hash(), 5, 2), std::out_of_range);

  const Bytes wire = encode_message(view);
  EXPECT_EQ(wire.size(), view.wire_size() + 1);
  const auto back =
      std::dynamic_pointer_cast<SliceMsg>(decode_message(ByteSpan(wire.data(), wire.size())));
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->block_hash, block->hash());
  EXPECT_EQ(back->first_index, 1u);
  EXPECT_EQ(back->total_txs, 6u);
  EXPECT_EQ(back->wire_size(), view.wire_size());
  ASSERT_EQ(back->txs().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back->txs()[i].txid(), block->txs()[1 + i].txid());
    EXPECT_NE(&back->txs()[i], &block->txs()[1 + i]);
  }
}

TEST(Codec, UtxoLookupAndResponse) {
  UtxoLookupMsg lookup;
  lookup.block_hash = Hash256::of({});
  lookup.outpoints = {{Hash256::tagged("a", {}), 0}, {Hash256::tagged("b", {}), 7}};
  auto lb = roundtrip(lookup);
  ASSERT_NE(lb, nullptr);
  ASSERT_EQ(lb->outpoints.size(), 2u);
  EXPECT_EQ(lb->outpoints[1].index, 7u);

  UtxoResponseMsg resp;
  resp.block_hash = lookup.block_hash;
  resp.entries = {{lookup.outpoints[0], true, TxOutput{42, KeyPair::from_seed(1).pub}},
                  {lookup.outpoints[1], false, {}}};
  auto rb = roundtrip(resp);
  ASSERT_NE(rb, nullptr);
  ASSERT_EQ(rb->entries.size(), 2u);
  EXPECT_TRUE(rb->entries[0].exists);
  EXPECT_EQ(rb->entries[0].output.value, 42u);
  EXPECT_EQ(rb->entries[0].output.recipient, KeyPair::from_seed(1).pub);
  EXPECT_FALSE(rb->entries[1].exists);
}

TEST(Codec, Vote) {
  const KeyPair key = KeyPair::from_seed(5);
  VoteMsg msg;
  msg.block_hash = Hash256::tagged("blk", {});
  msg.approve = true;
  msg.slice_digest = Hash256::tagged("digest", {});
  msg.voter = key.pub;
  msg.sig = sign(key, {});
  auto back = roundtrip(msg);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->approve);
  EXPECT_EQ(back->voter, key.pub);
  EXPECT_EQ(back->sig, msg.sig);
  EXPECT_EQ(back->slice_digest, msg.slice_digest);
}

TEST(Codec, Commit) {
  auto block = sample_block();
  CommitMsg msg;
  msg.header = block->header();
  msg.block_hash = block->hash();
  msg.spent = {{Hash256::tagged("s", {}), 3}};
  msg.created = {{{Hash256::tagged("c", {}), 1}, TxOutput{99, KeyPair::from_seed(2).pub}},
                 {{Hash256::tagged("c2", {}), 0}, TxOutput{1, KeyPair::from_seed(3).pub}}};
  auto back = roundtrip(msg);
  ASSERT_NE(back, nullptr);
  ASSERT_EQ(back->spent.size(), 1u);
  ASSERT_EQ(back->created.size(), 2u);
  EXPECT_EQ(back->created[0].second.value, 99u);
  EXPECT_EQ(back->header.hash(), msg.header.hash());
}

TEST(Codec, BlockRequestResponse) {
  BlockRequestMsg req;
  req.block_hash = Hash256::of({});
  req.request_id = 77;
  auto rb = roundtrip(req);
  EXPECT_EQ(rb->request_id, 77u);

  BlockResponseMsg hit;
  hit.block_hash = req.block_hash;
  hit.request_id = 77;
  hit.block = sample_block();
  auto hb = roundtrip(hit);
  ASSERT_NE(hb->block, nullptr);
  EXPECT_EQ(hb->block->hash(), hit.block->hash());

  BlockResponseMsg miss;
  miss.block_hash = req.block_hash;
  miss.request_id = 78;
  auto mb = roundtrip(miss);
  EXPECT_EQ(mb->block, nullptr);
}

TEST(Codec, Shards) {
  BlockShardMsg shard;
  shard.block_hash = Hash256::of({});
  shard.height = 9;
  shard.shard = {3, Bytes{1, 2, 3, 4, 5}};
  auto sb = roundtrip(shard);
  EXPECT_EQ(sb->shard.index, 3u);
  EXPECT_EQ(sb->shard.bytes, (Bytes{1, 2, 3, 4, 5}));
  EXPECT_EQ(sb->height, 9u);

  ShardRequestMsg req;
  req.block_hash = shard.block_hash;
  req.request_id = 5;
  EXPECT_EQ(roundtrip(req)->request_id, 5u);

  ShardResponseMsg hit;
  hit.block_hash = shard.block_hash;
  hit.request_id = 5;
  hit.shard = shard.shard;
  auto hb = roundtrip(hit);
  ASSERT_TRUE(hb->shard.has_value());
  EXPECT_EQ(hb->shard->bytes, shard.shard.bytes);

  ShardResponseMsg miss;
  miss.block_hash = shard.block_hash;
  miss.request_id = 6;
  EXPECT_FALSE(roundtrip(miss)->shard.has_value());
}

TEST(Codec, Proofs) {
  auto block = sample_block();
  ProofRequestMsg req;
  req.txid = block->txs()[1].txid();
  req.block_hash = block->hash();
  req.request_id = 11;
  EXPECT_EQ(roundtrip(req)->request_id, 11u);

  ProofResponseMsg resp;
  resp.request_id = 11;
  resp.proof = spv::build_proof(*block, req.txid);
  ASSERT_TRUE(resp.proof.has_value());
  auto back = roundtrip(resp);
  ASSERT_TRUE(back->proof.has_value());
  EXPECT_EQ(back->proof->txid, req.txid);
  EXPECT_EQ(back->proof->path.size(), resp.proof->path.size());
  EXPECT_TRUE(spv::verify_proof(*back->proof, block->header()));

  ProofResponseMsg miss;
  miss.request_id = 12;
  EXPECT_FALSE(roundtrip(miss)->proof.has_value());
}

TEST(Codec, TxLocate) {
  TxLocateRequestMsg req;
  req.txid = Hash256::tagged("tx", {});
  req.request_id = 21;
  auto rb = roundtrip(req);
  EXPECT_EQ(rb->txid, req.txid);
  EXPECT_EQ(rb->request_id, 21u);

  TxLocateResponseMsg hit;
  hit.request_id = 21;
  hit.found = true;
  hit.block_hash = Hash256::tagged("blk", {});
  hit.height = 17;
  auto hb = roundtrip(hit);
  EXPECT_TRUE(hb->found);
  EXPECT_EQ(hb->block_hash, hit.block_hash);
  EXPECT_EQ(hb->height, 17u);

  TxLocateResponseMsg miss;
  miss.request_id = 22;
  EXPECT_FALSE(roundtrip(miss)->found);
}

TEST(Codec, RejectsGarbage) {
  EXPECT_THROW((void)decode_message({}), DecodeError);
  const Bytes unknown_kind = {0xee};
  EXPECT_THROW((void)decode_message(ByteSpan(unknown_kind.data(), unknown_kind.size())),
               DecodeError);
  // Truncated vote.
  VoteMsg vote;
  Bytes wire = encode_message(vote);
  wire.resize(wire.size() - 10);
  EXPECT_THROW((void)decode_message(ByteSpan(wire.data(), wire.size())), DecodeError);
  // Trailing garbage.
  Bytes padded = encode_message(BlockRequestMsg{});
  padded.push_back(0);
  EXPECT_THROW((void)decode_message(ByteSpan(padded.data(), padded.size())), DecodeError);
}

TEST(Codec, FuzzTruncationsNeverCrash) {
  // Every prefix of every message either decodes or throws DecodeError —
  // no crashes, no silent garbage acceptance of short buffers.
  std::vector<Bytes> corpus;
  corpus.push_back(encode_message(FullBlockMsg(sample_block(), false)));
  {
    VoteMsg v;
    v.challenged_txid = Hash256::of({});
    corpus.push_back(encode_message(v));
  }
  {
    CommitMsg c;
    c.header = sample_block()->header();
    c.spent = {{Hash256::of({}), 1}};
    corpus.push_back(encode_message(c));
  }
  {
    UtxoLookupMsg u;  // length-prefixed vector
    u.outpoints = {{Hash256::of({}), 1}, {Hash256::of({}), 2}};
    corpus.push_back(encode_message(u));
  }

  for (const Bytes& wire : corpus) {
    for (std::size_t len = 0; len < wire.size(); ++len) {
      try {
        (void)decode_message(ByteSpan(wire.data(), len));
      } catch (const DecodeError&) {
        // expected for malformed prefixes
      }
    }
  }
}

TEST(Codec, FuzzBitFlipsNeverCrash) {
  Rng rng(31337);
  const Bytes base = encode_message(FullBlockMsg(sample_block(), true));
  for (int round = 0; round < 500; ++round) {
    Bytes mutated = base;
    const std::size_t flips = 1 + rng.index(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.index(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
    try {
      auto msg = decode_message(ByteSpan(mutated.data(), mutated.size()));
      // A decode that survives must at least be internally consistent
      // enough to re-encode without crashing.
      (void)encode_message(*std::static_pointer_cast<IciMessage>(msg));
    } catch (const DecodeError&) {
      // expected for most mutations
    }
  }
}

}  // namespace
}  // namespace ici::core

// -- allocation accounting ----------------------------------------------------
// encode_message pre-reserves the exact wire size and every nested
// serializer appends through serialize_into, so the only heap traffic in an
// encode is the output buffer itself. Replacing global operator new (for
// this whole binary — it just counts, then defers to malloc) lets the test
// below pin that down instead of trusting the comment.

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ici::core {
namespace {

TEST(Codec, EncodeFullBlockDoesAtMostOneAllocation) {
  // A full-size block (the largest message the dissemination path ships).
  ChainGenConfig cfg;
  cfg.blocks = 1;
  cfg.txs_per_block = 256;
  const Chain chain = ChainGenerator(cfg).generate();
  const FullBlockMsg msg(std::make_shared<const Block>(chain.at_height(1)), false);

  // Warm-up: the codec/encode trace span aggregates wall samples into a
  // vector with amortized doubling; 70 encodes park its capacity at 128 so
  // the measured encode (sample 71) cannot trigger a regrowth, and the
  // span bookkeeping itself (label map node, span stack) is warm too.
  for (int i = 0; i < 70; ++i) (void)encode_message(msg);

  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  const Bytes wire = encode_message(msg);
  const std::size_t during = g_alloc_count.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(wire.size(), msg.wire_size() + 1);
  EXPECT_LE(during, 1u) << "encode_message should allocate only the output buffer";
}

}  // namespace
}  // namespace ici::core
