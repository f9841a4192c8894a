// Tests for the flattened node-state layout (PR 6): the fleet-shared
// HeaderIndex, the SoA FleetTally, the ObjectArena node storage — and the
// contract that the refactor is purely representational: deterministic sim
// metrics must be bit-identical to the per-node-maps implementation it
// replaced (goldens captured from that implementation at N=1000). The
// baseline goldens pin FullRep and RapidChain the same way.
#include <gtest/gtest.h>

#include "chain/workload.h"
#include "common/arena.h"
#include "baseline/fullrep.h"
#include "baseline/rapidchain.h"
#include "ici/network.h"
#include "storage/fleet_tally.h"
#include "storage/storage_meter.h"

namespace ici {
namespace {

Chain small_chain(std::size_t blocks, std::size_t txs) {
  ChainGenConfig cfg;
  cfg.blocks = blocks;
  cfg.txs_per_block = txs;
  return ChainGenerator(cfg).generate();
}

std::unique_ptr<core::IciNetwork> preloaded_net(const Chain& chain, std::size_t nodes,
                                                std::size_t clusters) {
  core::IciNetworkConfig cfg;
  cfg.node_count = nodes;
  cfg.ici.cluster_count = clusters;
  auto net = std::make_unique<core::IciNetwork>(cfg);
  net->init_with_genesis(chain.at_height(0));
  net->preload_chain(chain);
  return net;
}

TEST(HeaderIndexSharing, OneInternPerBlockAcrossTheFleet) {
  const Chain chain = small_chain(6, 3);
  const auto net = preloaded_net(chain, 24, 3);

  // Every node knows every header, but the fleet interned each exactly once.
  EXPECT_EQ(net->runtime().header_index()->size(), chain.size());
  for (std::size_t id = 0; id < net->node_count(); ++id) {
    const BlockStore& store = net->node(static_cast<cluster::NodeId>(id)).store();
    EXPECT_EQ(store.header_count(), chain.size());
    EXPECT_EQ(store.header_bytes(), chain.size() * BlockHeader::kWireSize);
    // All stores share the network's index object, not copies of it.
    EXPECT_EQ(store.header_index().get(), net->runtime().header_index().get());
  }
  EXPECT_EQ(net->runtime().header_index()->interned_bytes(),
            chain.size() * BlockHeader::kWireSize);
}

TEST(HeaderIndexSharing, LookupsStayNodeLocal) {
  const Chain chain = small_chain(5, 3);
  const auto net = preloaded_net(chain, 16, 2);

  // A header another node interned is not visible to a node that never
  // received it: add a joiner with an empty bitmap and probe.
  const cluster::NodeId joiner = net->add_joiner({50.0, 50.0}, 0);
  const BlockStore& fresh = net->node(joiner).store();
  EXPECT_EQ(fresh.header_count(), 0u);
  EXPECT_FALSE(fresh.header_by_hash(chain.at_height(1).hash()).has_value());
  EXPECT_FALSE(fresh.header_at(1).has_value());

  // While an established node still resolves both lookups.
  const BlockStore& old = net->node(0).store();
  EXPECT_TRUE(old.header_by_hash(chain.at_height(1).hash()).has_value());
  EXPECT_EQ(old.header_at(1)->hash(), chain.at_height(1).hash());
}

TEST(FleetTallyTest, StoresWriteThroughTheSharedRows) {
  const Chain chain = small_chain(5, 3);
  const auto net = preloaded_net(chain, 16, 2);

  const FleetTally& tally = net->runtime().fleet_tally();
  ASSERT_EQ(tally.size(), net->node_count());
  std::uint64_t tally_bodies = 0;
  std::uint64_t store_bodies = 0;
  for (std::size_t id = 0; id < net->node_count(); ++id) {
    tally_bodies += tally.slot(id).body_bytes;
    store_bodies += net->node(static_cast<cluster::NodeId>(id)).store().body_bytes();
    EXPECT_EQ(tally.slot(id).header_count,
              net->node(static_cast<cluster::NodeId>(id)).store().header_count());
  }
  EXPECT_GT(tally_bodies, 0u);
  EXPECT_EQ(tally_bodies, store_bodies);

  // The SoA storage snapshot agrees with summing per-node accessors.
  const StorageSnapshot snap = net->storage_snapshot();
  std::uint64_t per_node_total = 0;
  for (std::size_t id = 0; id < net->node_count(); ++id) {
    per_node_total += net->node(static_cast<cluster::NodeId>(id)).storage_bytes();
  }
  EXPECT_EQ(snap.total_bytes, per_node_total);
}

TEST(ObjectArenaTest, StableAddressesAcrossGrowth) {
  ObjectArena<std::uint64_t> arena(/*chunk_capacity=*/4);
  std::vector<std::uint64_t*> ptrs;
  for (std::uint64_t i = 0; i < 100; ++i) ptrs.push_back(&arena.emplace_back(i));
  EXPECT_EQ(arena.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(*ptrs[i], i);           // no element ever moved
    EXPECT_EQ(&arena[i], ptrs[i]);    // indexing finds the same object
  }
  EXPECT_THROW(static_cast<void>(arena.at(100)), std::out_of_range);
}

struct Counted {
  inline static int live = 0;
  Counted() { ++live; }
  ~Counted() { --live; }
};

TEST(ObjectArenaTest, ClearKeepsChunksAndReuses) {
  ObjectArena<Counted> arena(8);
  for (int i = 0; i < 20; ++i) arena.emplace_back();
  EXPECT_EQ(Counted::live, 20);
  const std::size_t cap = arena.capacity();
  arena.clear();
  EXPECT_EQ(Counted::live, 0);
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_EQ(arena.capacity(), cap);  // chunks retained for reuse
  for (int i = 0; i < 5; ++i) arena.emplace_back();
  EXPECT_EQ(Counted::live, 5);
  EXPECT_EQ(arena.capacity(), cap);  // reuse did not allocate
}

// -- bit-identity against the pre-flattening implementation ------------------
//
// Golden values captured from the per-node-maps implementation (PR 5 tree)
// with this exact configuration. The flattening must not change how many
// events run, how the queue fills, or what the fleet stores — only where
// the bytes live. Wall-clock/RSS metrics are exempt by design.
// peak_pending re-captured for the sharded engine (PR 8): per-sender
// jitter streams shift individual arrival times, which moves the pending
// high-water mark while event counts and stored bytes stay put.
struct SimGolden {
  std::uint64_t seed;
  std::uint64_t events_executed;
  std::uint64_t peak_pending;
  std::uint64_t far_events;
  std::uint64_t total_bytes;
};

class NodeStateBitIdentity : public ::testing::TestWithParam<SimGolden> {};

TEST_P(NodeStateBitIdentity, LiveDisseminationMatchesGoldens) {
  const SimGolden& g = GetParam();

  ChainGenConfig ccfg;
  ccfg.txs_per_block = 8;
  ccfg.workload.seed = g.seed;
  ccfg.workload.wallet_count = 64;
  ccfg.workload.genesis_outputs_per_wallet = 8;
  ChainGenerator gen(ccfg);

  core::IciNetworkConfig ncfg;
  ncfg.node_count = 1000;
  ncfg.ici.cluster_count = 50;
  ncfg.ici.replication = 1;
  ncfg.seed = g.seed;
  core::IciNetwork net(ncfg);

  Block genesis = gen.workload().make_genesis();
  gen.workload().confirm(genesis);
  Chain chain(genesis);
  net.init_with_genesis(genesis);
  for (int b = 0; b < 2; ++b) {
    chain.append(gen.next_block(chain));
    net.disseminate_and_settle(chain.tip());
  }

  const metrics::Registry& reg = net.metrics();
  EXPECT_EQ(reg.counter_value("sim.events_executed"), g.events_executed);
  EXPECT_EQ(reg.counter_value("sim.peak_pending"), g.peak_pending);
  EXPECT_EQ(reg.counter_value("sim.far_events"), g.far_events);
  EXPECT_EQ(reg.counter_value("sim.late_events"), 0u);
  EXPECT_EQ(reg.counter_value("sim.event_heap_fallbacks"), 0u);
  EXPECT_EQ(net.storage_snapshot().total_bytes, g.total_bytes);
  EXPECT_EQ(net.availability(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    TwoSeeds, NodeStateBitIdentity,
    ::testing::Values(SimGolden{42, 8549, 797, 852, 3'503'600},
                      SimGolden{7, 8552, 662, 853, 3'492'000}),
    [](const ::testing::TestParamInfo<SimGolden>& info) {
      return "seed" + std::to_string(info.param.seed);
    });


// -- baseline goldens ---------------------------------------------------------
//
// FullRep and RapidChain pinned the same way: a small live run at one shard
// plus one bootstrap() join, with values captured before the three facades
// moved onto one fleet::FleetRuntime. test_shard_determinism only compares
// runs with each other, so a change that shifts a baseline alike at every
// shard count would pass it; these catch that.
struct BaselineGolden {
  std::uint64_t events_executed;
  std::uint64_t msgs_sent;
  std::uint64_t bytes_sent;
  std::vector<sim::SimTime> commit_latency_us;
  std::uint64_t total_bytes;
  std::uint64_t join_bytes_downloaded;
  sim::SimTime join_elapsed_us;
};

template <typename Net>
void expect_baseline_golden(Net& net, const BaselineGolden& g) {
  ChainGenConfig ccfg;
  ccfg.txs_per_block = 8;
  ccfg.workload.seed = 5;
  ccfg.workload.wallet_count = 32;
  ChainGenerator gen(ccfg);
  Block genesis = gen.workload().make_genesis();
  gen.workload().confirm(genesis);
  Chain chain(genesis);
  net.init_with_genesis(genesis);
  for (std::size_t b = 0; b < g.commit_latency_us.size(); ++b) {
    chain.append(gen.next_block(chain));
    EXPECT_EQ(net.disseminate_and_settle(chain.tip()), g.commit_latency_us[b]) << "block " << b;
  }
  const auto join = net.bootstrap({50, 50});
  EXPECT_TRUE(join.complete);
  EXPECT_EQ(join.bytes_downloaded, g.join_bytes_downloaded);
  EXPECT_EQ(join.elapsed_us, g.join_elapsed_us);

  const sim::NodeTraffic traffic = net.network().total_traffic();
  EXPECT_EQ(net.metrics().counter_value("sim.events_executed"), g.events_executed);
  EXPECT_EQ(traffic.msgs_sent, g.msgs_sent);
  EXPECT_EQ(traffic.bytes_sent, g.bytes_sent);
  EXPECT_EQ(StorageMeter::snapshot(net.stores()).total_bytes, g.total_bytes);
}

TEST(BaselineBitIdentity, FullRepMatchesGoldens) {
  baseline::FullRepConfig cfg;
  cfg.node_count = 48;
  cfg.seed = 3;
  cfg.shards = 1;
  baseline::FullRepNetwork net(cfg);
  expect_baseline_golden(net, {1485, 1485, 421'698, {345'542, 385'150, 326'536}, 558'600,
                               12'233, 54'861});
}

TEST(BaselineBitIdentity, RapidChainMatchesGoldens) {
  baseline::RapidChainConfig cfg;
  cfg.node_count = 48;
  cfg.committee_count = 4;
  cfg.seed = 3;
  cfg.shards = 1;
  baseline::RapidChainNetwork net(cfg);
  expect_baseline_golden(net, {927, 927, 244'839, {188'445, 276'379, 421'308}, 163'440, 8'177,
                               91'250});
}

}  // namespace
}  // namespace ici
