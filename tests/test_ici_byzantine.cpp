// Robustness against scripted byzantine members: reject-voters below the
// quorum threshold cannot block commits, omission faults are tolerated, and
// corrupt servers are detected and routed around.
#include <gtest/gtest.h>

#include "chain/workload.h"
#include "ici/network.h"

namespace ici::core {
namespace {

struct Rig {
  explicit Rig(std::size_t nodes = 24, std::size_t clusters = 2) {
    ChainGenConfig ccfg;
    ccfg.txs_per_block = 12;
    gen = std::make_unique<ChainGenerator>(ccfg);

    IciNetworkConfig ncfg;
    ncfg.node_count = nodes;
    ncfg.ici.cluster_count = clusters;
    net = std::make_unique<IciNetwork>(ncfg);

    Block genesis = gen->workload().make_genesis();
    gen->workload().confirm(genesis);
    chain = std::make_unique<Chain>(genesis);
    net->init_with_genesis(genesis);
  }

  sim::SimTime step() {
    chain->append(gen->next_block(*chain));
    return net->disseminate_and_settle(chain->tip());
  }

  /// Marks ~fraction of each cluster's members with `profile`.
  void poison(double fraction, FaultProfile profile) {
    auto& dir = net->directory();
    for (std::size_t c = 0; c < dir.cluster_count(); ++c) {
      const auto& members = dir.members(c);
      const auto count = static_cast<std::size_t>(fraction * static_cast<double>(members.size()));
      for (std::size_t i = 0; i < count; ++i) net->set_fault(members[i], profile);
    }
  }

  std::unique_ptr<ChainGenerator> gen;
  std::unique_ptr<IciNetwork> net;
  std::unique_ptr<Chain> chain;
};

TEST(Byzantine, MinorityRejectVotersCannotBlockCommit) {
  Rig rig;
  rig.poison(0.25, FaultProfile{.vote_reject = true});
  const sim::SimTime latency = rig.step();
  EXPECT_GT(latency, 0u) << "commit must proceed with < 1/3 rejectors";
  EXPECT_EQ(rig.net->metrics().counter_value("commit.count"), 2u);
  EXPECT_GT(rig.net->metrics().counter_value("fault.votes_flipped"), 0u);
}

TEST(Byzantine, SupermajorityRejectorsBlockCommit) {
  Rig rig;
  rig.poison(0.5, FaultProfile{.vote_reject = true});
  const sim::SimTime latency = rig.step();
  EXPECT_EQ(latency, 0u) << "with 50% rejectors the 2/3 quorum is unreachable";
  EXPECT_EQ(rig.net->metrics().counter_value("commit.count"), 0u);
  EXPECT_GT(rig.net->metrics().counter_value("verify.rejected") +
                rig.net->metrics().counter_value("verify.aborted"),
            0u);
}

TEST(Byzantine, OmissionFaultsToleratedViaTimeout) {
  Rig rig;
  rig.poison(0.2, FaultProfile{.drop_slices = true});
  const sim::SimTime latency = rig.step();
  // Silent members mean the quorum check over `expected` fails initially;
  // the verify timeout then commits on the approvals that did arrive.
  EXPECT_GT(latency, 0u);
  EXPECT_EQ(rig.net->metrics().counter_value("commit.count"), 2u);
  EXPECT_GT(rig.net->metrics().counter_value("fault.slices_dropped"), 0u);
}

TEST(Byzantine, CorruptServerRoutedAroundWithReplication) {
  Rig rig;
  IciNetworkConfig cfg;
  cfg.node_count = 24;
  cfg.ici.cluster_count = 2;
  cfg.ici.replication = 2;  // two holders: one corrupt, one honest
  ChainGenConfig ccfg;
  ccfg.txs_per_block = 12;
  ChainGenerator gen(ccfg);
  IciNetwork net(cfg);
  Block genesis = gen.workload().make_genesis();
  gen.workload().confirm(genesis);
  Chain chain(genesis);
  net.init_with_genesis(genesis);
  chain.append(gen.next_block(chain));
  ASSERT_GT(net.disseminate_and_settle(chain.tip()), 0u);

  const Hash256 hash = chain.tip().hash();
  const auto storers = net.storers_of(hash, 1, 0, false);
  ASSERT_EQ(storers.size(), 2u);
  net.set_fault(storers[0], FaultProfile{.corrupt_serves = true});
  net.set_fault(storers[1], FaultProfile{.corrupt_serves = true});
  // Un-poison the second so exactly one honest holder remains.
  net.set_fault(storers[1], FaultProfile{});

  // A non-holder fetch must succeed via the honest replica even when the
  // corrupt one answers first.
  cluster::NodeId requester = cluster::kNoNode;
  for (auto id : net.directory().members(0)) {
    if (id != storers[0] && id != storers[1]) {
      requester = id;
      break;
    }
  }
  ASSERT_NE(requester, cluster::kNoNode);
  bool got = false;
  net.node(requester).fetch_block(hash, 1, [&](const FetchResult& r) {
    got = r.block != nullptr && r.block->hash() == hash && r.block->merkle_ok();
  });
  net.settle();
  EXPECT_TRUE(got);
}

TEST(Byzantine, CorruptSoleHolderRoutedAroundViaSiblingCluster) {
  // With cross-cluster fallback (default), the fetch detects the tampered
  // body from the corrupt in-cluster holder and retries a sibling cluster's
  // honest copy.
  Rig rig;
  ASSERT_GT(rig.step(), 0u);
  const Hash256 hash = rig.chain->tip().hash();
  const auto storers = rig.net->storers_of(hash, 1, 0, false);
  rig.net->set_fault(storers[0], FaultProfile{.corrupt_serves = true});

  cluster::NodeId requester = cluster::kNoNode;
  for (auto id : rig.net->directory().members(0)) {
    if (id != storers[0] && !rig.net->node(id).store().has_block(hash)) {
      requester = id;
      break;
    }
  }
  ASSERT_NE(requester, cluster::kNoNode);
  bool got = false;
  rig.net->node(requester).fetch_block(hash, 1, [&](const FetchResult& r) {
    got = r.block != nullptr && r.block->hash() == hash && r.block->merkle_ok();
  });
  rig.net->settle();
  // Candidates are distance-sorted, so the corrupt holder may or may not be
  // contacted before an honest sibling; either way the fetch must succeed
  // with verified data (the detect-and-retry path itself is covered by
  // CorruptServerRoutedAroundWithReplication and the no-fallback test).
  EXPECT_TRUE(got) << "honest sibling-cluster copy must win";
}

TEST(Byzantine, CorruptSoleHolderCausesCleanMissWithoutFallback) {
  ChainGenConfig ccfg;
  ccfg.txs_per_block = 12;
  ChainGenerator gen(ccfg);
  IciNetworkConfig cfg;
  cfg.node_count = 24;
  cfg.ici.cluster_count = 2;
  cfg.ici.cross_cluster_fallback = false;
  IciNetwork net(cfg);
  Block genesis = gen.workload().make_genesis();
  gen.workload().confirm(genesis);
  Chain chain(genesis);
  net.init_with_genesis(genesis);
  chain.append(gen.next_block(chain));
  ASSERT_GT(net.disseminate_and_settle(chain.tip()), 0u);

  const Hash256 hash = chain.tip().hash();
  const auto storers = net.storers_of(hash, 1, 0, false);
  net.set_fault(storers[0], FaultProfile{.corrupt_serves = true});

  cluster::NodeId requester = cluster::kNoNode;
  for (auto id : net.directory().members(0)) {
    if (id != storers[0] && !net.node(id).store().has_block(hash)) {
      requester = id;
      break;
    }
  }
  ASSERT_NE(requester, cluster::kNoNode);
  bool called = false;
  bool hit = true;
  net.node(requester).fetch_block(hash, 1, [&](const FetchResult& r) {
    called = true;
    hit = r.block != nullptr;
    EXPECT_EQ(r.outcome, FetchOutcome::kNotFound);
  });
  net.settle();
  EXPECT_TRUE(called);
  EXPECT_FALSE(hit) << "tampered data must never be accepted";
  EXPECT_GT(net.metrics().counter_value("fault.corrupt_serves"), 0u);
}

TEST(Byzantine, BogusChallengesAreDisprovenAndCommitProceeds) {
  // Byzantine rejectors challenge a perfectly valid transaction; the head
  // re-verifies it, records the challenge as bogus, and commits anyway.
  Rig rig;
  rig.poison(0.25, FaultProfile{.vote_reject = true});
  ASSERT_GT(rig.step(), 0u);
  EXPECT_GT(rig.net->metrics().counter_value("fraud.bogus"), 0u);
  EXPECT_EQ(rig.net->metrics().counter_value("fraud.confirmed"), 0u);
  EXPECT_EQ(rig.net->metrics().counter_value("verify.fraud_rejected"), 0u);
}

TEST(Byzantine, HonestChallengeVetoesInvalidBlockDespiteQuorum) {
  // A block with one invalid transaction: only the member holding that
  // slice can see the problem, and everyone else approves. The fraud proof
  // must veto the block even though approvals alone reach the 2/3 quorum.
  Rig rig;
  Block good = rig.gen->next_block(*rig.chain);
  std::vector<Transaction> txs = good.txs();
  const KeyPair key = KeyPair::from_seed(4242);
  Transaction phantom({TxInput{OutPoint{Hash256::tagged("void", {}), 0}, {}, {}}},
                      {TxOutput{7, key.pub}}, 123);
  phantom.sign_all_inputs(key);
  txs.push_back(std::move(phantom));
  const Block bad = Block::assemble(good.header().parent, good.header().height,
                                    good.header().timestamp_us, std::move(txs));

  EXPECT_EQ(rig.net->disseminate_and_settle(bad), 0u);
  EXPECT_EQ(rig.net->metrics().counter_value("commit.count"), 0u);
  EXPECT_GT(rig.net->metrics().counter_value("fraud.confirmed"), 0u);
  EXPECT_GT(rig.net->metrics().counter_value("verify.fraud_rejected"), 0u);
}

TEST(Byzantine, ForgedSignatureVetoedByEveryClusterReplaysExactly) {
  // One tx carries a forged signature and is otherwise valid. In every
  // cluster the member holding it rejects its slice naming that tx, and the
  // head's re-check confirms the fraud, so the block commits nowhere. The
  // values pin the exact event schedule.
  Rig rig(36, 3);
  ASSERT_GT(rig.step(), 0u);  // block 1: commits in all three clusters

  Block good = rig.gen->next_block(*rig.chain);
  std::vector<Transaction> txs = good.txs();
  const Transaction& honest = txs[txs.size() / 2];
  ASSERT_FALSE(honest.is_coinbase());
  std::vector<TxInput> inputs = honest.inputs();
  inputs[0].sig[7] ^= 0x20;
  txs[txs.size() / 2] = Transaction(std::move(inputs), honest.outputs(), honest.nonce());
  const Block bad = Block::assemble(good.header().parent, good.header().height,
                                    good.header().timestamp_us, std::move(txs));

  EXPECT_EQ(rig.net->disseminate_and_settle(bad), 0u);
  const metrics::Registry& m = rig.net->metrics();
  EXPECT_EQ(m.counter_value("fraud.confirmed"), 3u);
  EXPECT_EQ(m.counter_value("verify.fraud_rejected"), 3u);
  EXPECT_EQ(m.counter_value("verify.slice_rejected"), 3u);
  EXPECT_EQ(m.counter_value("commit.count"), 3u);
  EXPECT_EQ(m.counter_value("sim.events_executed"), 388u);
}

TEST(Byzantine, OverspendCaughtByChallenge) {
  // A tx spending a real output but emitting more value than it consumes.
  Rig rig;
  ASSERT_GT(rig.step(), 0u);  // block 1: creates spendable outputs

  Block good = rig.gen->next_block(*rig.chain);
  std::vector<Transaction> txs = good.txs();
  // Inflate the last non-coinbase tx's output value.
  for (std::size_t i = txs.size(); i-- > 1;) {
    if (txs[i].is_coinbase()) continue;
    std::vector<TxOutput> outs = txs[i].outputs();
    outs[0].value += 1'000'000'000;
    Transaction inflated(txs[i].inputs(), std::move(outs), txs[i].nonce());
    // Re-sign so the stateless check passes and only the value check fails.
    // (We cannot re-sign with the real owner's key here, so instead sign
    // with a fresh key — the recipient check then fails, which is equally
    // a stateful fraud the challenge must confirm.)
    inflated.sign_all_inputs(KeyPair::from_seed(777));
    txs[i] = std::move(inflated);
    break;
  }
  const Block bad = Block::assemble(good.header().parent, good.header().height,
                                    good.header().timestamp_us, std::move(txs));
  EXPECT_EQ(rig.net->disseminate_and_settle(bad), 0u);
  EXPECT_GT(rig.net->metrics().counter_value("fraud.confirmed"), 0u);
}

TEST(Byzantine, FaultProfileAnyReflectsFlags) {
  EXPECT_FALSE(FaultProfile{}.any());
  EXPECT_TRUE((FaultProfile{.vote_reject = true}).any());
  EXPECT_TRUE((FaultProfile{.drop_slices = true}).any());
  EXPECT_TRUE((FaultProfile{.corrupt_serves = true}).any());
}

}  // namespace
}  // namespace ici::core
