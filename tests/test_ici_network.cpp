// Protocol-level tests of the ICIStrategy network: dissemination commits in
// every cluster, storage follows the assignment, UTXO shards stay globally
// consistent, retrieval and repair work.
#include "ici/network.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "chain/workload.h"
#include "common/thread_pool.h"
#include "ici/retrieval.h"
#include "storage/storage_meter.h"

namespace ici::core {
namespace {

struct Rig {
  explicit Rig(std::size_t nodes = 24, std::size_t clusters = 3, std::size_t replication = 1,
               std::size_t txs_per_block = 12) {
    ChainGenConfig ccfg;
    ccfg.txs_per_block = txs_per_block;
    ccfg.workload.wallet_count = 16;
    gen = std::make_unique<ChainGenerator>(ccfg);

    IciNetworkConfig ncfg;
    ncfg.node_count = nodes;
    ncfg.ici.cluster_count = clusters;
    ncfg.ici.replication = replication;
    net = std::make_unique<IciNetwork>(ncfg);

    Block genesis = gen->workload().make_genesis();
    gen->workload().confirm(genesis);
    chain = std::make_unique<Chain>(genesis);
    net->init_with_genesis(genesis);
  }

  /// Produces and disseminates one block; returns full-commit latency.
  sim::SimTime step() {
    Block b = gen->next_block(*chain);
    chain->append(b);
    return net->disseminate_and_settle(chain->tip());
  }

  std::unique_ptr<ChainGenerator> gen;
  std::unique_ptr<IciNetwork> net;
  std::unique_ptr<Chain> chain;
};

TEST(IciNetwork, RejectsInvalidConfigs) {
  IciNetworkConfig cfg;
  cfg.node_count = 4;
  cfg.ici.cluster_count = 8;
  EXPECT_THROW(IciNetwork bad(cfg), std::invalid_argument);

  IciNetworkConfig cfg2;
  cfg2.ici.cluster_count = 0;
  EXPECT_THROW(IciNetwork bad2(cfg2), std::invalid_argument);
}

TEST(IciNetwork, DisseminationCommitsInEveryCluster) {
  Rig rig;
  const sim::SimTime latency = rig.step();
  EXPECT_GT(latency, 0u) << "block did not reach full commit";
  // One commit per cluster.
  EXPECT_EQ(rig.net->metrics().counter_value("commit.count"), 3u);
  EXPECT_EQ(rig.net->metrics().counter_value("verify.rounds_started"), 3u);
  EXPECT_EQ(rig.net->metrics().counter_value("verify.aborted"), 0u);
  EXPECT_EQ(rig.net->metrics().counter_value("verify.slice_rejected"), 0u);
}

TEST(IciNetwork, EveryClusterStoresEveryBlockExactlyRTimes) {
  Rig rig(24, 3, 1);
  for (int i = 0; i < 5; ++i) ASSERT_GT(rig.step(), 0u);

  auto& dir = rig.net->directory();
  for (std::uint64_t h = 1; h <= rig.chain->height(); ++h) {
    const Hash256 hash = rig.chain->at_height(h).hash();
    for (std::size_t c = 0; c < dir.cluster_count(); ++c) {
      std::size_t holders = 0;
      for (auto id : dir.members(c)) {
        if (rig.net->node(id).store().has_block(hash)) ++holders;
      }
      EXPECT_EQ(holders, 1u) << "height " << h << " cluster " << c;
      // And the holder is the assigned storer.
      const auto assigned = rig.net->storers_of(hash, h, c, false);
      EXPECT_TRUE(rig.net->node(assigned[0]).store().has_block(hash));
    }
  }
}

TEST(IciNetwork, ReplicationFactorHonored) {
  Rig rig(24, 2, 3);
  for (int i = 0; i < 3; ++i) ASSERT_GT(rig.step(), 0u);
  auto& dir = rig.net->directory();
  for (std::uint64_t h = 1; h <= rig.chain->height(); ++h) {
    const Hash256 hash = rig.chain->at_height(h).hash();
    for (std::size_t c = 0; c < dir.cluster_count(); ++c) {
      std::size_t holders = 0;
      for (auto id : dir.members(c)) {
        if (rig.net->node(id).store().has_block(hash)) ++holders;
      }
      EXPECT_EQ(holders, 3u) << "height " << h << " cluster " << c;
    }
  }
}

TEST(IciNetwork, AllNodesHoldAllHeaders) {
  Rig rig;
  for (int i = 0; i < 4; ++i) ASSERT_GT(rig.step(), 0u);
  for (std::size_t id = 0; id < rig.net->node_count(); ++id) {
    EXPECT_EQ(rig.net->node(static_cast<cluster::NodeId>(id)).store().header_count(),
              rig.chain->size())
        << "node " << id;
  }
}

TEST(IciNetwork, UtxoShardsUnionMatchesReplayedState) {
  Rig rig;
  for (int i = 0; i < 5; ++i) ASSERT_GT(rig.step(), 0u);

  // Ground truth by replaying the chain.
  UtxoSet expected;
  for (const Block& b : rig.chain->blocks()) {
    for (const Transaction& tx : b.txs()) expected.apply_tx(tx, b.header().height);
  }

  auto& dir = rig.net->directory();
  for (std::size_t c = 0; c < dir.cluster_count(); ++c) {
    std::unordered_map<OutPoint, TxOutput, OutPointHasher> combined;
    for (auto id : dir.members(c)) {
      for (const auto& [op, out] : rig.net->node(id).utxo_shard()) {
        EXPECT_TRUE(combined.emplace(op, out).second)
            << "outpoint owned by two members of cluster " << c;
        // Ownership matches the rendezvous rule.
        EXPECT_EQ(rig.net->utxo_owner(op, c), id);
      }
    }
    EXPECT_EQ(combined.size(), expected.size()) << "cluster " << c;
    for (const auto& [op, out] : combined) {
      const auto entry = expected.find(op);
      ASSERT_TRUE(entry.has_value());
      EXPECT_EQ(entry->output.value, out.value);
    }
  }
}

TEST(IciNetwork, OwnerTableReproducesEveryOwner) {
  // disseminate() ranks every outpoint its block spends or creates, in every
  // cluster, into the owner table that settle() drops; each owner must read
  // the same from the table as ranked from scratch before it existed. At
  // 120 members per outpoint the pass runs in several chunks, tiled the
  // same way on 1, 2 and 8 pool lanes.
  for (const std::size_t lanes : {1u, 2u, 8u}) {
    ThreadPool::set_global_threads(lanes);
    Rig rig(120, 4, 1, 24);
    ASSERT_GT(rig.step(), 0u);
    rig.chain->append(rig.gen->next_block(*rig.chain));
    const Block& block = rig.chain->tip();
    std::vector<OutPoint> ops;
    for (const Transaction& tx : block.txs()) {
      for (const TxInput& in : tx.inputs()) ops.push_back(in.prevout);
      for (std::uint32_t i = 0; i < tx.outputs().size(); ++i) ops.push_back({tx.txid(), i});
    }
    const std::size_t k = rig.net->directory().cluster_count();
    const auto owners = [&] {
      std::vector<cluster::NodeId> out;
      for (const OutPoint& op : ops) {
        for (std::size_t c = 0; c < k; ++c) out.push_back(rig.net->utxo_owner(op, c));
      }
      return out;
    };
    const std::vector<cluster::NodeId> before = owners();
    ASSERT_GT(ops.size(), block.txs().size());

    rig.net->disseminate(block);
    EXPECT_EQ(owners(), before) << lanes << " lanes";
    rig.net->settle();
    EXPECT_EQ(owners(), before) << lanes << " lanes";
    EXPECT_GT(rig.net->full_commit_time(block.hash()), 0u);
  }
  ThreadPool::set_global_threads(0);
}

TEST(IciNetwork, PerNodeStorageIsFractionOfLedger) {
  Rig rig(30, 3, 1);
  for (int i = 0; i < 6; ++i) ASSERT_GT(rig.step(), 0u);

  const auto stores = rig.net->stores();
  const StorageSnapshot snap = StorageMeter::snapshot(stores);
  const double ledger = static_cast<double>(rig.chain->total_bytes());
  // k clusters × r copies of the ledger, split over all N nodes on average.
  const double expected_mean =
      ledger * 3.0 / 30.0 + static_cast<double>(rig.chain->size()) * BlockHeader::kWireSize;
  EXPECT_NEAR(snap.mean_bytes, expected_mean, expected_mean * 0.15);
  // Nobody stores the whole ledger.
  EXPECT_LT(snap.max_bytes, ledger * 0.9);
}

TEST(IciNetwork, PreloadMatchesAssignmentWithoutTraffic) {
  Rig rig;
  ChainGenConfig ccfg;
  ccfg.blocks = 8;
  ccfg.txs_per_block = 4;
  const Chain chain = ChainGenerator(ccfg).generate();
  // Separate network preloaded with the same chain: zero traffic.
  IciNetworkConfig ncfg;
  ncfg.node_count = 20;
  ncfg.ici.cluster_count = 2;
  IciNetwork net(ncfg);
  net.init_with_genesis(chain.at_height(0));
  net.preload_chain(chain);

  EXPECT_EQ(net.network().total_traffic().bytes_sent, 0u);
  EXPECT_EQ(net.committed().size(), chain.size());
  for (std::uint64_t h = 1; h <= chain.height(); ++h) {
    const Hash256 hash = chain.at_height(h).hash();
    for (std::size_t c = 0; c < net.directory().cluster_count(); ++c) {
      const auto storers = net.storers_of(hash, h, c, false);
      for (auto id : storers) EXPECT_TRUE(net.node(id).store().has_block(hash));
    }
  }
}

TEST(IciNetwork, RetrievalFetchesRemoteBlocks) {
  Rig rig;
  for (int i = 0; i < 4; ++i) ASSERT_GT(rig.step(), 0u);

  const RetrievalStats stats = RetrievalDriver::run(*rig.net, 20, 7);
  EXPECT_EQ(stats.misses(), 0u);
  EXPECT_GT(stats.remote_hits + stats.local_hits, 0u);
  if (stats.remote_hits > 0) {
    EXPECT_GT(stats.latency_us.mean(), 0.0);
  }
}

TEST(IciNetwork, FetchReturnsCorrectBlock) {
  Rig rig;
  ASSERT_GT(rig.step(), 0u);
  const Block& target = rig.chain->at_height(1);

  // Find a node that does NOT hold the body.
  cluster::NodeId requester = cluster::kNoNode;
  for (std::size_t id = 0; id < rig.net->node_count(); ++id) {
    if (!rig.net->node(static_cast<cluster::NodeId>(id)).store().has_block(target.hash())) {
      requester = static_cast<cluster::NodeId>(id);
      break;
    }
  }
  ASSERT_NE(requester, cluster::kNoNode);

  bool got = false;
  rig.net->node(requester).fetch_block(
      target.hash(), 1, [&](const FetchResult& r) {
        ASSERT_NE(r.block, nullptr);
        EXPECT_EQ(r.block->hash(), target.hash());
        EXPECT_EQ(r.outcome, FetchOutcome::kRemote);
        EXPECT_GT(r.elapsed_us, 0u);
        got = true;
      });
  rig.net->settle();
  EXPECT_TRUE(got);
}

TEST(IciNetwork, CommunicationFarBelowFullBroadcast) {
  Rig rig(30, 3, 1, 20);
  rig.net->network().reset_traffic();
  ASSERT_GT(rig.step(), 0u);
  const Block& b = rig.chain->tip();
  const auto traffic = rig.net->network().total_traffic();
  // Full replication would ship ≥ N copies of the body; ICI should ship far
  // fewer (roughly (2 + r) per cluster plus small messages).
  const double block_copies =
      static_cast<double>(traffic.bytes_sent) / static_cast<double>(b.serialized_size());
  EXPECT_LT(block_copies, 30.0 * 0.7);
  EXPECT_GT(block_copies, 3.0);  // sanity: at least one copy per cluster
}

TEST(IciNetwork, RepairRestoresAvailabilityAfterOfflineWithR2) {
  Rig rig(20, 2, 2);
  for (int i = 0; i < 4; ++i) ASSERT_GT(rig.step(), 0u);
  EXPECT_NEAR(rig.net->availability(), 1.0, 1e-9);

  // Knock a node offline and repair its cluster.
  auto& dir = rig.net->directory();
  const cluster::NodeId victim = dir.members(0).front();
  rig.net->network().set_online(victim, false);
  dir.set_online(victim, false);
  rig.net->repair_cluster(0);
  rig.net->settle();

  // With r=2 every block still has an online holder, and repair re-created
  // second copies where the victim was a holder.
  EXPECT_NEAR(rig.net->availability(), 1.0, 1e-9);
}

TEST(IciNetwork, AvailabilityDropsWhenSoleHolderOffline) {
  Rig rig(12, 1, 1);
  for (int i = 0; i < 5; ++i) ASSERT_GT(rig.step(), 0u);

  auto& dir = rig.net->directory();
  // Take the holder of block 1 offline; r=1 means no other copy exists.
  const Hash256 hash = rig.chain->at_height(1).hash();
  const auto storers = rig.net->storers_of(hash, 1, 0, false);
  rig.net->network().set_online(storers[0], false);
  dir.set_online(storers[0], false);
  EXPECT_LT(rig.net->availability(), 1.0);
}

TEST(IciNetwork, ChurnWithRepairKeepsMostBlocksAvailable) {
  Rig rig(24, 2, 2);
  for (int i = 0; i < 4; ++i) ASSERT_GT(rig.step(), 0u);

  sim::FaultPlan churn;
  churn.seed = 99;
  churn.crash_fraction = 0.3;
  churn.mean_uptime_us = 5'000'000;
  churn.mean_downtime_us = 2'000'000;
  rig.net->start_faults(churn);
  rig.net->simulator().run_until(rig.net->simulator().now() + 30'000'000);

  EXPECT_GT(rig.net->availability(), 0.9);
  EXPECT_GT(rig.net->metrics().counter_value("churn.down"), 0u);
}

}  // namespace
}  // namespace ici::core
