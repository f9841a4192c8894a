// Fault injection (sim/faults.h): random crash sessions, plan-spec parsing,
// bit-identical replay from a seed, crash-window reconstruction invariants,
// retrieval retry-with-backoff under a lossy network, and goldens that pin
// the request and lookup paths to exact counters and event counts.
// docs/FAULTS.md documents the fault model these tests pin down.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "chain/workload.h"
#include "ici/network.h"
#include "ici/retrieval.h"
#include "sim/faults.h"
#include "spv/proof.h"

namespace ici::core {
namespace {

struct Rig {
  explicit Rig(std::size_t replication = 2, std::size_t data = 0, std::size_t parity = 0,
               std::size_t retry_rounds = 0, int blocks = 3) {
    ChainGenConfig ccfg;
    ccfg.txs_per_block = 8;
    gen = std::make_unique<ChainGenerator>(ccfg);
    IciNetworkConfig ncfg;
    ncfg.node_count = 24;
    ncfg.ici.cluster_count = 3;
    ncfg.ici.replication = replication;
    ncfg.ici.erasure_data = data;
    ncfg.ici.erasure_parity = parity;
    ncfg.ici.fetch_retry_rounds = retry_rounds;
    net = std::make_unique<IciNetwork>(ncfg);
    Block genesis = gen->workload().make_genesis();
    gen->workload().confirm(genesis);
    chain = std::make_unique<Chain>(genesis);
    net->init_with_genesis(genesis);
    for (int i = 0; i < blocks; ++i) {
      chain->append(gen->next_block(*chain));
      EXPECT_GT(net->disseminate_and_settle(chain->tip()), 0u);
    }
  }

  std::unique_ptr<ChainGenerator> gen;
  std::unique_ptr<IciNetwork> net;
  std::unique_ptr<Chain> chain;
};

cluster::NodeId pick_online_non_holder(Rig& rig, const Hash256& hash, std::size_t cluster) {
  for (auto id : rig.net->directory().members(cluster)) {
    if (rig.net->directory().online(id) && !rig.net->node(id).store().has_block(hash) &&
        !rig.net->node(id).shards().has_any(hash)) {
      return id;
    }
  }
  return cluster::kNoNode;
}

/// Everything the injector and the protocol counted, as one comparable blob.
std::string fingerprint(Rig& rig) {
  std::ostringstream os;
  const sim::FaultStats& fs = rig.net->faults()->stats();
  os << fs.msgs_dropped << '/' << fs.msgs_duplicated << '/' << fs.msgs_delayed << '/'
     << fs.partition_drops << '/' << fs.crashes << '/' << fs.restarts << '\n';
  for (const auto& [name, counter] : rig.net->metrics().counters()) {
    os << name << '=' << counter.value() << '\n';
  }
  return os.str();
}

// -- random crash sessions (churn) ---------------------------------------------

struct SilentNode : sim::INode {
  void on_message(sim::NodeId, const sim::MessagePtr&) override {}
};

TEST(FaultSessions, OnlyCrashSetNodesEverFlip) {
  sim::Simulator sim;
  sim::Network net(sim, {});
  SilentNode node;
  std::vector<sim::NodeId> ids;
  for (int i = 0; i < 50; ++i) ids.push_back(net.add_node(&node, {0, 0}));

  sim::FaultPlan plan;
  plan.seed = 3;
  plan.crash_fraction = 0.5;
  plan.mean_uptime_us = 1000;
  plan.mean_downtime_us = 1000;
  sim::FaultInjector faults(net, plan);
  std::unordered_set<sim::NodeId> changed;
  int downs = 0, ups = 0;
  faults.start(ids, [&](sim::NodeId id, bool online) {
    changed.insert(id);
    (online ? ups : downs)++;
  });
  const std::vector<sim::NodeId>& crash_set = faults.crash_set();
  EXPECT_GT(crash_set.size(), 10u);
  EXPECT_LT(crash_set.size(), 40u);

  sim.run_until(20'000);
  EXPECT_GT(downs, 0);
  EXPECT_GT(ups, 0);
  for (sim::NodeId id : changed) {
    EXPECT_NE(std::find(crash_set.begin(), crash_set.end(), id), crash_set.end());
  }
}

TEST(FaultSessions, ZeroCrashFractionSelectsNobody) {
  sim::Simulator sim;
  sim::Network net(sim, {});
  SilentNode node;
  const std::vector<sim::NodeId> ids = {net.add_node(&node, {0, 0})};
  sim::FaultInjector faults(net, sim::FaultPlan{});  // crash_fraction 0
  faults.start(ids, nullptr);
  EXPECT_TRUE(faults.crash_set().empty());
}

// -- plan spec ----------------------------------------------------------------

TEST(FaultPlanSpec, ParsesEveryKey) {
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse("seed=7,crash=0.3,up_s=600,down_s=60,drop=0.1,dup=0.02,delay_us=5000",
                                    &plan, &error))
      << error;
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.crash_fraction, 0.3);
  EXPECT_EQ(plan.mean_uptime_us, 600'000'000u);
  EXPECT_EQ(plan.mean_downtime_us, 60'000'000u);
  EXPECT_DOUBLE_EQ(plan.message.drop_prob, 0.1);
  EXPECT_DOUBLE_EQ(plan.message.duplicate_prob, 0.02);
  EXPECT_DOUBLE_EQ(plan.message.extra_delay_mean_us, 5000.0);
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlanSpec, DescribeRoundTrips) {
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse("seed=9,crash=0.25,drop=0.05", &plan, &error));
  sim::FaultPlan again;
  ASSERT_TRUE(sim::FaultPlan::parse(plan.describe(), &again, &error)) << error;
  EXPECT_EQ(again.describe(), plan.describe());
}

TEST(FaultPlanSpec, EmptySpecIsDisabled) {
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse("", &plan, &error));
  EXPECT_FALSE(plan.enabled());
}

TEST(FaultPlanSpec, RejectsBadInput) {
  sim::FaultPlan plan;
  std::string error;
  EXPECT_FALSE(sim::FaultPlan::parse("bogus=1", &plan, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(sim::FaultPlan::parse("drop=1.5", &plan, &error));
  EXPECT_FALSE(sim::FaultPlan::parse("crash", &plan, &error));
  EXPECT_FALSE(sim::FaultPlan::parse("up_s=0,crash=0.1", &plan, &error));
}

// -- determinism --------------------------------------------------------------

TEST(FaultDeterminism, SameSeedReplaysBitIdentically) {
  // Two independent deployments under the same plan must produce the same
  // crash schedule, the same drops, the same repair traffic — everything.
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse("seed=11,crash=0.5,up_s=90,down_s=45,drop=0.15,dup=0.05",
                                    &plan, &error));

  std::vector<std::string> prints;
  std::vector<double> avail;
  for (int run = 0; run < 2; ++run) {
    Rig rig;
    rig.net->start_faults(plan);
    // Recurring crash/restart sessions keep the queue alive forever, so
    // advance in bounded windows (never settle()).
    for (int minute = 0; minute < 5; ++minute) {
      rig.net->run_for(60'000'000);
      avail.push_back(rig.net->network_availability());
    }
    EXPECT_EQ(rig.net->simulator().late_events(), 0u);
    prints.push_back(fingerprint(rig));
  }
  EXPECT_EQ(prints[0], prints[1]);
  ASSERT_EQ(avail.size(), 10u);
  for (int minute = 0; minute < 5; ++minute) {
    EXPECT_EQ(avail[static_cast<std::size_t>(minute)],
              avail[static_cast<std::size_t>(minute + 5)])
        << "availability trajectory diverged at minute " << minute;
  }
}

// -- crash windows ------------------------------------------------------------

TEST(FaultCrash, AllReplicationHoldersDownBlockStillServable) {
  // Scripted windows take every own-cluster holder of one block down at the
  // same instant; repair plus cross-cluster fallback must keep the block
  // fetchable (the paper's reconstruction invariant, read-path form).
  Rig rig(/*replication=*/2);
  const Hash256 hash = rig.chain->at_height(2).hash();
  const auto holders = rig.net->storers_of(hash, 2, 0, false);
  ASSERT_FALSE(holders.empty());

  sim::FaultPlan plan;
  const sim::SimTime t0 = rig.net->simulator().now() + 1'000'000;
  for (auto id : holders) plan.crashes.push_back({id, t0, /*restart_at_us=*/0});
  rig.net->start_faults(plan);
  rig.net->run_for(2'000'000);
  EXPECT_EQ(rig.net->faults()->stats().crashes, holders.size());
  for (auto id : holders) EXPECT_FALSE(rig.net->network().online(id));

  const auto requester = pick_online_non_holder(rig, hash, 0);
  ASSERT_NE(requester, cluster::kNoNode);
  bool got = false;
  rig.net->node(requester).fetch_block(hash, 2, [&](const FetchResult& r) {
    got = r.block != nullptr && r.block->hash() == hash;
  });
  // Scripted windows with no restart schedule nothing further, so the queue
  // drains and settle() is safe here.
  rig.net->settle();
  EXPECT_TRUE(got) << "every in-cluster holder is down; the network still owns copies";
}

TEST(FaultCrash, CodedParityHoldersDownBlockReconstructs) {
  // RS(4,2): two crashed shard holders are exactly the parity budget; the
  // fetch must reconstruct from the surviving 4 shards. kmeans clusters are
  // not balanced, so pick a cluster big enough to hold one shard per node
  // (smaller clusters double up shards and a 2-node crash could cost 3).
  Rig rig(/*replication=*/1, /*data=*/4, /*parity=*/2);
  const Hash256 hash = rig.chain->at_height(1).hash();
  std::size_t cluster = rig.net->config().cluster_count;
  std::vector<cluster::NodeId> holders;
  for (std::size_t c = 0; c < rig.net->config().cluster_count; ++c) {
    holders = rig.net->shard_holders(hash, 1, c);
    if (holders.size() >= 6) {
      cluster = c;
      break;
    }
  }
  ASSERT_LT(cluster, rig.net->config().cluster_count)
      << "no cluster has one holder per RS(4,2) shard";

  sim::FaultPlan plan;
  const sim::SimTime t0 = rig.net->simulator().now() + 1'000'000;
  plan.crashes.push_back({holders[0], t0, 0});
  plan.crashes.push_back({holders[1], t0, 0});
  rig.net->start_faults(plan);
  rig.net->run_for(2'000'000);

  // Any surviving member works as the requester: a shard holder still needs
  // d-1 remote shards, a non-holder needs d — either way reconstruction
  // must succeed within the parity budget.
  cluster::NodeId requester = cluster::kNoNode;
  for (auto id : rig.net->directory().members(cluster)) {
    if (rig.net->directory().online(id)) {
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
  EXPECT_TRUE(got) << "d shards survive, so the block must reconstruct";
}

TEST(FaultCrash, RestartWindowBringsNodeBack) {
  Rig rig;
  const auto victim = static_cast<cluster::NodeId>(3);
  sim::FaultPlan plan;
  const sim::SimTime t0 = rig.net->simulator().now() + 1'000'000;
  plan.crashes.push_back({victim, t0, t0 + 3'000'000});
  rig.net->start_faults(plan);

  rig.net->run_for(2'000'000);
  EXPECT_FALSE(rig.net->network().online(victim));
  rig.net->run_for(3'000'000);
  EXPECT_TRUE(rig.net->network().online(victim));
  EXPECT_EQ(rig.net->faults()->stats().crashes, 1u);
  EXPECT_EQ(rig.net->faults()->stats().restarts, 1u);
}

// -- message drops + retry ----------------------------------------------------

TEST(FaultDrop, RetrievalRetriesThroughHeavyDrop) {
  // Nearly half of all messages vanish (each fetch attempt needs both the
  // request and the response to survive, so ~30% of attempts land). With
  // two retry rounds the driver should still win most fetches, and the
  // retry/timeout machinery must be visibly exercised.
  Rig rig(/*replication=*/2, 0, 0, /*retry_rounds=*/2);
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse("seed=5,drop=0.45", &plan, &error));
  rig.net->start_faults(plan);

  // Message faults schedule no recurring events, so settle-mode retrieval
  // (each fetch drains timeout timers) is safe.
  const RetrievalStats stats = RetrievalDriver::run(*rig.net, 25, /*seed=*/123);
  EXPECT_GT(stats.local_hits + stats.remote_hits, stats.misses())
      << "most fetches must survive the drop rate";
  EXPECT_GT(stats.attempt_timeouts, 0u) << "dropped attempts must be counted";
  EXPECT_GT(stats.retry_rounds, 0u) << "retry-with-backoff must have kicked in";
  EXPECT_GT(rig.net->faults()->stats().msgs_dropped, 0u);
}

TEST(FaultDrop, MissSplitsIntoTimeoutsVsNotFound) {
  // A fetch for a hash nobody has, under drops, must classify as not_found
  // only when every candidate definitively answered; unanswered attempts
  // make it a timeout. Either way it lands in exactly one bucket.
  Rig rig(/*replication=*/2, 0, 0, /*retry_rounds=*/1);
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse("seed=6,drop=0.4", &plan, &error));
  rig.net->start_faults(plan);

  bool called = false;
  rig.net->node(0).fetch_block(Hash256::tagged("missing", {}), 99,
                               [&](const FetchResult& r) {
                                 called = true;
                                 EXPECT_EQ(r.block, nullptr);
                                 EXPECT_TRUE(r.outcome == FetchOutcome::kTimeout ||
                                             r.outcome == FetchOutcome::kNotFound);
                               });
  rig.net->settle();
  EXPECT_TRUE(called);
  const auto timeouts = rig.net->metrics().counter_value("retrieval.timeouts");
  const auto not_found = rig.net->metrics().counter_value("retrieval.not_found");
  EXPECT_EQ(timeouts + not_found, rig.net->metrics().counter_value("retrieval.misses"));
}

// -- background repair --------------------------------------------------------

TEST(FaultRepair, DaemonRestoresReplicasUnderChurn) {
  // Long-downtime churn with the repair daemon on: lost replicas must be
  // re-replicated (copies counted) and network-wide serveability must hold
  // at the end of the window.
  Rig rig(/*replication=*/2);
  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse("seed=13,crash=0.4,up_s=60,down_s=600", &plan, &error));
  constexpr sim::SimTime kWindow = 5 * 60'000'000;
  rig.net->start_faults(plan);
  rig.net->start_repair_daemon(30'000'000, rig.net->simulator().now() + kWindow);
  rig.net->run_for(kWindow);

  EXPECT_GT(rig.net->metrics().counter_value("repair.copies_started"), 0u);
  EXPECT_GT(rig.net->network_availability(), 0.99)
      << "repair must keep committed blocks servable somewhere";
}

// -- golden: request and lookup paths -----------------------------------------

/// The counters and sim-time distributions under `prefixes`, one
/// `name=value` line each (a distribution as its count and sum), then the
/// event count: what a golden pins to prove a path replays exactly.
std::string dump_metrics(IciNetwork& net, std::initializer_list<const char*> prefixes) {
  auto wanted = [&](const std::string& name) {
    return std::any_of(prefixes.begin(), prefixes.end(),
                       [&](const char* prefix) { return name.rfind(prefix, 0) == 0; });
  };
  std::ostringstream os;
  for (const auto& [name, counter] : net.metrics().counters()) {
    if (wanted(name)) os << name << '=' << counter.value() << '\n';
  }
  for (const auto& [name, dist] : net.metrics().distributions()) {
    if (wanted(name)) {
      os << name << '=' << dist.count() << '/' << static_cast<std::uint64_t>(dist.sum()) << '\n';
    }
  }
  os << "sim.events_executed=" << net.metrics().counter_value("sim.events_executed") << '\n';
  return os.str();
}

TEST(FaultGolden, RequestAndLookupPathsReplayExactly) {
  // One run through every request path and the slice lookup round: slice
  // lookups that time out on a dark owner, block fetches with retry rounds
  // under drops, locate-then-prove for every committed tx, and a repair pull.
  // The expected values pin the exact event schedule, so a refactor of these
  // paths must replay it message for message.
  ChainGenConfig ccfg;
  ccfg.txs_per_block = 12;
  ChainGenerator gen(ccfg);
  IciNetworkConfig ncfg;
  ncfg.node_count = 48;
  ncfg.ici.cluster_count = 3;
  ncfg.ici.replication = 2;
  ncfg.ici.fetch_retry_rounds = 2;
  IciNetwork net(ncfg);
  Block genesis = gen.workload().make_genesis();
  gen.workload().confirm(genesis);
  Chain chain(genesis);
  net.init_with_genesis(genesis);

  // A cluster-0 member goes dark for four live blocks: its UTXO shard cannot
  // answer lookups, so slices that spend from it vote after the timeout.
  const cluster::NodeId dark = net.directory().members(0).back();
  net.network().set_online(dark, false);
  net.directory().set_online(dark, false);
  for (int i = 0; i < 4; ++i) {
    chain.append(gen.next_block(chain));
    net.disseminate_and_settle(chain.tip());
  }
  net.network().set_online(dark, true);
  net.directory().set_online(dark, true);
  EXPECT_GT(net.metrics().counter_value("lookup.timeouts"), 0u);

  sim::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(sim::FaultPlan::parse("seed=21,drop=0.35", &plan, &error));
  net.start_faults(plan);

  const RetrievalStats stats = RetrievalDriver::run(net, 30, /*seed=*/77);
  std::ostringstream fetched;
  fetched << stats.local_hits << '/' << stats.remote_hits << '/' << stats.timeouts << '/'
          << stats.not_found << '/' << stats.retry_rounds << '/' << stats.attempt_timeouts << '/'
          << stats.latency_us.count();

  std::size_t proved = 0;
  std::size_t unproved = 0;
  std::size_t asker = 0;
  for (std::uint64_t h = 0; h <= chain.height(); ++h) {
    const Block& block = chain.at_height(h);
    for (const Transaction& tx : block.txs()) {
      asker = (asker + 7) % net.node_count();
      net.node(static_cast<cluster::NodeId>(asker))
          .locate_and_prove(tx.txid(), [&](std::optional<spv::TxInclusionProof> proof,
                                           sim::SimTime) {
            if (proof && spv::verify_proof(*proof, block.header())) {
              ++proved;
            } else {
              ++unproved;
            }
          });
      net.settle();
    }
  }

  // Repair: one storer loses its copy of block 2, so repair pulls it back.
  const Hash256 pruned = chain.at_height(2).hash();
  const cluster::NodeId storer = net.storers_of(pruned, 2, 0, /*online_only=*/false).front();
  EXPECT_GT(net.node(storer).prune(pruned), 0u);
  net.repair_cluster(0);
  net.settle();

  // local/remote/timeouts/not_found/retry_rounds/attempt_timeouts/latencies
  EXPECT_EQ(fetched.str(), "2/28/0/0/0/52/28");
  EXPECT_EQ(proved, 27u);
  EXPECT_EQ(unproved, 26u);
  EXPECT_EQ(dump_metrics(net, {"retrieval.", "locate.", "spv.", "lookup.", "repair."}),
            "locate.hits=20\n"
            "locate.timeouts=25\n"
            "lookup.requests=131\n"
            "lookup.timeouts=5\n"
            "repair.bytes_copied=2820\n"
            "repair.copies_completed=1\n"
            "repair.copies_started=1\n"
            "repair.unavailable_blocks=0\n"
            "retrieval.attempt_timeouts=53\n"
            "retrieval.local_hits=2\n"
            "retrieval.retry_rounds=1\n"
            "spv.bad_proofs=1\n"
            "spv.misses=1\n"
            "retrieval.latency_us=29/532594635\n"
            "spv.latency_us=25/432238647\n"
            "sim.events_executed=1449\n");
}

TEST(FaultGolden, ChallengeLookupsReplayExactly) {
  // The head's fraud check runs the same UTXO lookup round as a slice. A
  // quarter of every cluster rejects each slice with a fabricated challenge,
  // one honest owner is dark (lookups to it time out), and a last
  // block spends an outpoint that never existed (a confirmed fraud).
  ChainGenConfig ccfg;
  ccfg.txs_per_block = 12;
  ChainGenerator gen(ccfg);
  IciNetworkConfig ncfg;
  ncfg.node_count = 48;
  ncfg.ici.cluster_count = 3;
  IciNetwork net(ncfg);
  Block genesis = gen.workload().make_genesis();
  gen.workload().confirm(genesis);
  Chain chain(genesis);
  net.init_with_genesis(genesis);
  for (std::size_t c = 0; c < net.directory().cluster_count(); ++c) {
    const auto& members = net.directory().members(c);
    for (std::size_t i = 0; i < members.size() / 4; ++i) {
      net.set_fault(members[i], FaultProfile{.vote_reject = true});
    }
  }

  const cluster::NodeId dark = net.directory().members(0).back();
  net.network().set_online(dark, false);
  net.directory().set_online(dark, false);
  for (int i = 0; i < 4; ++i) {
    chain.append(gen.next_block(chain));
    net.disseminate_and_settle(chain.tip());
  }

  Block good = gen.next_block(chain);
  std::vector<Transaction> txs = good.txs();
  const KeyPair key = KeyPair::from_seed(4242);
  Transaction phantom({TxInput{OutPoint{Hash256::tagged("void", {}), 0}, {}, {}}},
                      {TxOutput{7, key.pub}}, 123);
  phantom.sign_all_inputs(key);
  txs.push_back(std::move(phantom));
  net.disseminate_and_settle(Block::assemble(good.header().parent, good.header().height,
                                             good.header().timestamp_us, std::move(txs)));

  EXPECT_EQ(dump_metrics(net, {"fraud.", "lookup.", "verify.", "commit."}),
            "commit.count=12\n"
            "commit.notices=188\n"
            "fraud.bogus=50\n"
            "fraud.confirmed=3\n"
            "lookup.requests=165\n"
            "lookup.timeouts=7\n"
            "verify.fraud_rejected=3\n"
            "verify.late_votes=3\n"
            "verify.rounds_started=15\n"
            "verify.slice_approved=177\n"
            "verify.slice_rejected=58\n"
            "commit.cluster_latency_us=12/17002461\n"
            "sim.events_executed=1285\n");
}

}  // namespace
}  // namespace ici::core
