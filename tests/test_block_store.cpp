#include "storage/block_store.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "chain/workload.h"
#include "storage/disk_backend.h"
#include "storage/storage_meter.h"

namespace ici {
namespace {

Chain small_chain(std::size_t blocks = 5) {
  ChainGenConfig cfg;
  cfg.blocks = blocks;
  cfg.txs_per_block = 3;
  return ChainGenerator(cfg).generate();
}

TEST(BlockStore, HeaderOnlyStorage) {
  const Chain chain = small_chain();
  BlockStore store;
  for (const Block& b : chain.blocks()) store.put(StoredBlock::header_only(b.header()));
  EXPECT_EQ(store.header_count(), chain.size());
  EXPECT_EQ(store.block_count(), 0u);
  EXPECT_EQ(store.body_bytes(), 0u);
  EXPECT_EQ(store.header_bytes(), chain.size() * BlockHeader::kWireSize);

  const auto h2 = store.header_at(2);
  ASSERT_TRUE(h2.has_value());
  EXPECT_EQ(h2->hash(), chain.at_height(2).hash());
  EXPECT_TRUE(store.header_by_hash(chain.at_height(1).hash()).has_value());
  EXPECT_FALSE(store.header_at(99).has_value());
}

TEST(BlockStore, PutBlockStoresBodyAndHeader) {
  const Chain chain = small_chain();
  BlockStore store;
  store.put(HashedBlock(chain.at_height(1)));
  EXPECT_TRUE(store.has_block(chain.at_height(1).hash()));
  EXPECT_EQ(store.block_count(), 1u);
  EXPECT_EQ(store.header_count(), 1u);
  EXPECT_EQ(store.body_bytes(), chain.at_height(1).serialized_size());
  const BlockRef ref = store.block_at(1);
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref->hash(), chain.at_height(1).hash());
  EXPECT_FALSE(ref.cold);
  EXPECT_EQ(ref.io_delay_us, 0u);
}

TEST(BlockStore, PutBlockIdempotent) {
  const Chain chain = small_chain();
  BlockStore store;
  store.put(HashedBlock(chain.at_height(1)));
  store.put(HashedBlock(chain.at_height(1)));
  EXPECT_EQ(store.block_count(), 1u);
  EXPECT_EQ(store.body_bytes(), chain.at_height(1).serialized_size());
}

TEST(BlockStore, PruneFreesBytes) {
  const Chain chain = small_chain();
  BlockStore store;
  store.put(HashedBlock(chain.at_height(1)));
  store.put(HashedBlock(chain.at_height(2)));
  const std::uint64_t freed = store.prune_block(chain.at_height(1).hash());
  EXPECT_EQ(freed, chain.at_height(1).serialized_size());
  EXPECT_FALSE(store.has_block(chain.at_height(1).hash()));
  // Header survives pruning.
  EXPECT_TRUE(store.header_by_hash(chain.at_height(1).hash()).has_value());
  EXPECT_EQ(store.body_bytes(), chain.at_height(2).serialized_size());
}

TEST(BlockStore, PruneMissingReturnsZero) {
  BlockStore store;
  EXPECT_EQ(store.prune_block(Hash256{}), 0u);
}

// Regression: pruning a body must not disturb the header-side bookkeeping
// (tip height, header count/bytes), and a later re-put of the same block
// must restore body_bytes() to the exact pre-prune value — no double-charge,
// no leak. Holds for both backends.
TEST(BlockStore, PruneThenRePutRestoresExactAccounting) {
  const Chain chain = small_chain();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "ici-store-test-reput";
  std::filesystem::remove_all(dir);

  for (const bool disk : {false, true}) {
    BlockStore store;
    if (disk) {
      StoreConfig cfg;
      cfg.backend = "disk";
      store.set_backend(std::make_unique<DiskBackend>(cfg, dir));
    }
    for (const Block& b : chain.blocks()) store.put(StoredBlock::header_only(b.header()));
    store.put(HashedBlock(chain.at_height(1)));
    store.put(HashedBlock(chain.at_height(2)));

    const std::uint64_t body_before = store.body_bytes();
    const std::uint64_t header_before = store.header_bytes();
    const auto tip_before = store.tip_height();
    ASSERT_TRUE(tip_before.has_value());

    EXPECT_EQ(store.prune_block(chain.at_height(1).hash()),
              chain.at_height(1).serialized_size());
    EXPECT_EQ(store.tip_height(), tip_before) << "disk=" << disk;
    EXPECT_EQ(store.header_count(), chain.size());
    EXPECT_EQ(store.header_bytes(), header_before);
    EXPECT_EQ(store.block_count(), 1u);

    store.put(HashedBlock(chain.at_height(1)));
    EXPECT_EQ(store.body_bytes(), body_before) << "disk=" << disk;
    EXPECT_EQ(store.block_count(), 2u);
    EXPECT_EQ(store.tip_height(), tip_before);
    ASSERT_TRUE(store.block_by_hash(chain.at_height(1).hash()));
  }
  std::filesystem::remove_all(dir);
}

TEST(BlockStore, SharedPtrStorageSharesObject) {
  const Chain chain = small_chain();
  auto shared = std::make_shared<const Block>(chain.at_height(1));
  BlockStore a, b;
  a.put(HashedBlock(shared));
  b.put(HashedBlock(shared, shared->hash()));
  EXPECT_EQ(a.block_by_hash(shared->hash()).share().get(),
            b.block_by_hash(shared->hash()).share().get());
  // Both stores still account for the full bytes independently.
  EXPECT_EQ(a.body_bytes(), b.body_bytes());
}

TEST(BlockStore, StoredHashesComplete) {
  const Chain chain = small_chain();
  BlockStore store;
  store.put(HashedBlock(chain.at_height(1)));
  store.put(HashedBlock(chain.at_height(3)));
  const auto hashes = store.stored_hashes();
  EXPECT_EQ(hashes.size(), 2u);
  for (const Hash256& h : hashes) EXPECT_TRUE(store.has_block(h));
}

TEST(BlockStore, TotalBytesIsBodiesPlusHeaders) {
  const Chain chain = small_chain();
  BlockStore store;
  for (const Block& b : chain.blocks()) store.put(StoredBlock::header_only(b.header()));
  store.put(HashedBlock(chain.at_height(1)));
  EXPECT_EQ(store.total_bytes(), store.body_bytes() + store.header_bytes());
}

TEST(StorageMeter, SnapshotAggregates) {
  const Chain chain = small_chain();
  BlockStore a, b;
  a.put(HashedBlock(chain.at_height(1)));
  b.put(HashedBlock(chain.at_height(1)));
  b.put(HashedBlock(chain.at_height(2)));

  const StorageSnapshot snap = StorageMeter::snapshot({&a, &b});
  EXPECT_EQ(snap.node_count, 2u);
  EXPECT_EQ(snap.total_bytes, a.total_bytes() + b.total_bytes());
  EXPECT_EQ(snap.max_bytes, static_cast<double>(b.total_bytes()));
  EXPECT_EQ(snap.min_bytes, static_cast<double>(a.total_bytes()));
  EXPECT_GT(snap.cv, 0.0);
}

TEST(StorageMeter, EmptySnapshot) {
  const StorageSnapshot snap = StorageMeter::snapshot({});
  EXPECT_EQ(snap.node_count, 0u);
  EXPECT_EQ(snap.total_bytes, 0u);
}

}  // namespace
}  // namespace ici
