#include "cluster/assignment.h"

#include <gtest/gtest.h>

#include <map>
#include <unordered_set>

#include "common/stats.h"

namespace ici::cluster {
namespace {

std::vector<NodeInfo> members(std::size_t n) {
  std::vector<NodeInfo> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back({static_cast<NodeId>(i), {0, 0}, 1.0});
  return out;
}

Hash256 block(std::uint64_t i) {
  ByteWriter w;
  w.u64(i);
  return Hash256::of(ByteSpan(w.bytes().data(), w.bytes().size()));
}

TEST(Rendezvous, DeterministicAcrossCalls) {
  RendezvousAssigner a;
  const auto m = members(10);
  EXPECT_EQ(a.storers(block(1), 1, m, 3), a.storers(block(1), 1, m, 3));
}

TEST(Rendezvous, OrderOfMembersIrrelevant) {
  RendezvousAssigner a;
  auto m = members(10);
  const auto ref = a.storers(block(5), 5, m, 2);
  std::reverse(m.begin(), m.end());
  EXPECT_EQ(a.storers(block(5), 5, m, 2), ref);
}

TEST(Rendezvous, ReturnsDistinctStorers) {
  RendezvousAssigner a;
  const auto m = members(8);
  for (std::uint64_t b = 0; b < 50; ++b) {
    const auto s = a.storers(block(b), b, m, 3);
    std::unordered_set<NodeId> set(s.begin(), s.end());
    EXPECT_EQ(set.size(), 3u);
  }
}

TEST(Rendezvous, ClampsReplicationToClusterSize) {
  RendezvousAssigner a;
  EXPECT_EQ(a.storers(block(1), 1, members(3), 10).size(), 3u);
}

TEST(Rendezvous, EmptyClusterThrows) {
  RendezvousAssigner a;
  EXPECT_THROW(a.storers(block(1), 1, {}, 1), std::invalid_argument);
}

TEST(Rendezvous, LoadBalancesAcrossBlocks) {
  RendezvousAssigner a;
  const auto m = members(10);
  std::map<NodeId, int> load;
  constexpr int kBlocks = 5000;
  for (std::uint64_t b = 0; b < kBlocks; ++b) load[a.storers(block(b), b, m, 1)[0]]++;
  // Expected 500 per node; accept ±30%.
  for (const auto& [id, count] : load) {
    EXPECT_GT(count, 350) << "node " << id;
    EXPECT_LT(count, 650) << "node " << id;
  }
}

TEST(Rendezvous, MinimalDisruptionOnMemberRemoval) {
  RendezvousAssigner a;
  const auto full = members(10);
  auto reduced = full;
  reduced.erase(reduced.begin() + 3);  // node 3 leaves

  constexpr int kBlocks = 2000;
  int moved = 0, was_on_removed = 0;
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    const NodeId before = a.storers(block(b), b, full, 1)[0];
    const NodeId after = a.storers(block(b), b, reduced, 1)[0];
    if (before == 3) {
      ++was_on_removed;
      EXPECT_NE(after, 3u);
    } else {
      // Blocks not on the departed node must not move at all.
      EXPECT_EQ(before, after) << "block " << b << " moved unnecessarily";
      if (before != after) ++moved;
    }
  }
  EXPECT_EQ(moved, 0);
  EXPECT_GT(was_on_removed, kBlocks / 20);  // ~10% expected
}

TEST(Rendezvous, CapacityWeightingSkewsProportionally) {
  RendezvousAssigner weighted(/*capacity_weighted=*/true);
  std::vector<NodeInfo> m = members(4);
  m[0].capacity = 3.0;  // should win ~3x the blocks of the others

  std::map<NodeId, int> load;
  constexpr int kBlocks = 6000;
  for (std::uint64_t b = 0; b < kBlocks; ++b) load[weighted.storers(block(b), b, m, 1)[0]]++;
  // Expected shares: 3/6 for node 0, 1/6 each for others.
  EXPECT_NEAR(load[0] / static_cast<double>(kBlocks), 0.5, 0.05);
  for (NodeId id = 1; id < 4; ++id) {
    EXPECT_NEAR(load[id] / static_cast<double>(kBlocks), 1.0 / 6.0, 0.04);
  }
}

TEST(Rendezvous, UnweightedIgnoresCapacity) {
  RendezvousAssigner unweighted(false);
  std::vector<NodeInfo> m = members(4);
  m[0].capacity = 100.0;
  std::map<NodeId, int> load;
  constexpr int kBlocks = 4000;
  for (std::uint64_t b = 0; b < kBlocks; ++b) load[unweighted.storers(block(b), b, m, 1)[0]]++;
  EXPECT_NEAR(load[0] / static_cast<double>(kBlocks), 0.25, 0.05);
}

TEST(RendezvousWeight, InUnitInterval) {
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double w = rendezvous_weight(block(i), static_cast<NodeId>(i % 7));
    EXPECT_GT(w, 0.0);
    EXPECT_LE(w, 1.0);
  }
}

TEST(RoundRobin, CyclesWithHeight) {
  RoundRobinAssigner rr;
  const auto m = members(5);
  for (std::uint64_t h = 0; h < 20; ++h) {
    const auto s = rr.storers(block(h), h, m, 1);
    EXPECT_EQ(s[0], static_cast<NodeId>(h % 5));
  }
}

// Placement goldens, captured from the per-member tagged-hash
// implementation before storers() hashed from a block template: a drift in
// any weight, score or tie-break changes the digest. Ids are sparse and
// large so every id byte of the hashed block varies; weighted runs use
// four capacity classes.
TEST(Rendezvous, PlacementMatchesGolden) {
  ByteWriter placements;
  for (const bool weighted : {false, true}) {
    const RendezvousAssigner a(weighted);
    for (const std::size_t m : {1, 2, 3, 17, 20, 33}) {
      std::vector<NodeInfo> cluster;
      for (std::size_t i = 0; i < m; ++i) {
        const auto id = static_cast<NodeId>(0x01000193u * (i + 1) + 7 * i);
        cluster.push_back({id, {0, 0}, 0.5 + 0.5 * static_cast<double>(i % 4)});
      }
      for (std::uint64_t key = 0; key < 8; ++key) {
        for (const std::size_t r : {1, 3}) {
          for (const NodeId id : a.storers(block(key * 1000 + 3), key, cluster, r)) {
            placements.u32(id);
          }
        }
      }
    }
  }
  EXPECT_EQ(placements.bytes().size(), 4u * 2 * 8 * (2 + 3 + 4 + 4 + 4 + 4));
  EXPECT_EQ(Hash256::of(ByteSpan(placements.bytes().data(), placements.bytes().size())).hex(),
            "94ebce281b56119c8fbd6f61934dd61bdb19542250fc6073ad81eaf346764eb1");
}

TEST(Rendezvous, WeightMatchesGolden) {
  EXPECT_EQ(rendezvous_weight(block(0), 0), 0x1.620aa4959cb49p-3);
  EXPECT_EQ(rendezvous_weight(block(1), 7), 0x1.a2e47c3ef48p-2);
  EXPECT_EQ(rendezvous_weight(block(42), 0xdeadbeef), 0x1.1060699a4953cp-3);
  EXPECT_EQ(rendezvous_weight(Hash256{}, 65536), 0x1.8c9172204d4p-1);
}

TEST(Rendezvous, Top1MatchesStorersFront) {
  // The owner pass's allocation-free top-1 ranks exactly as storers(…, 1):
  // same score, same tie-break, across single- and multi-batch clusters,
  // with sparse ids in no particular order.
  const RendezvousAssigner a;
  for (const std::size_t m : {1u, 2u, 3u, 17u, 20u, 33u, 64u}) {
    std::vector<NodeInfo> ms;
    for (std::size_t i = 0; i < m; ++i) {
      ms.push_back({static_cast<NodeId>((i * 7919 + 13) % 100003), {0, 0}, 1.0});
    }
    for (std::uint64_t k = 0; k < 1000; ++k) {
      const Hash256 key = block(k * 131 + m);
      ASSERT_EQ(rendezvous_top1(key, ms), a.storers(key, 0, ms, 1).front())
          << "m=" << m << " key=" << k;
    }
  }
}

TEST(Rendezvous, Top1EmptyClusterThrows) {
  EXPECT_THROW(static_cast<void>(rendezvous_top1(block(1), {})), std::invalid_argument);
}

TEST(RoundRobin, ReplicasAreConsecutive) {
  RoundRobinAssigner rr;
  const auto s = rr.storers(block(1), 3, members(5), 3);
  EXPECT_EQ(s, (std::vector<NodeId>{3, 4, 0}));
}

TEST(RoundRobin, EmptyThrows) {
  RoundRobinAssigner rr;
  EXPECT_THROW(rr.storers(block(1), 0, {}, 1), std::invalid_argument);
}

TEST(Assigners, BalanceQualityRendezvousVsRoundRobin) {
  // Both should balance well with sequential heights; rendezvous must stay
  // balanced even when heights collide (e.g. per-cluster restarts).
  RendezvousAssigner rv;
  const auto m = members(8);
  RunningStat loads;
  std::map<NodeId, int> count;
  for (std::uint64_t b = 0; b < 4000; ++b) count[rv.storers(block(b), 0, m, 1)[0]]++;
  for (const auto& [id, c] : count) {
    (void)id;
    loads.add(c);
  }
  EXPECT_LT(loads.cv(), 0.15);
}

}  // namespace
}  // namespace ici::cluster
