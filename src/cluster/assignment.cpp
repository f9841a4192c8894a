#include "cluster/assignment.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string_view>

namespace ici::cluster {

namespace {

// A weight is Hash256::tagged(kTag, key || u32le(id)), which fits one padded
// SHA-256 block: [0] tag length, [1, 15) tag, [15, 47) key, [47, 51) id.
constexpr std::string_view kTag = "ici/rendezvous";
constexpr std::size_t kKeyAt = 1 + kTag.size();
constexpr std::size_t kIdAt = kKeyAt + 32;
constexpr std::size_t kMessageLen = kIdAt + 4;
static_assert(kMessageLen <= Sha256::kOneBlockMax);

/// Members hashed per Sha256::hash_blocks call (the stack buffers' size).
constexpr std::size_t kBatch = 32;

void put_id(std::uint8_t* block, NodeId id) {
  for (std::size_t i = 0; i < 4; ++i) block[kIdAt + i] = static_cast<std::uint8_t>(id >> (8 * i));
}

/// Lays out `slots` padded blocks for `key`; only their id bytes differ
/// between members, and put_id() writes those.
void fill_blocks(std::uint8_t* blocks, std::size_t slots, const Hash256& key) {
  std::uint8_t block[64];
  block[0] = static_cast<std::uint8_t>(kTag.size());
  std::memcpy(block + 1, kTag.data(), kTag.size());
  std::memcpy(block + kKeyAt, key.bytes().data(), 32);
  Sha256::pad_block(block, kMessageLen);
  for (std::size_t i = 0; i < slots; ++i) std::memcpy(blocks + 64 * i, block, 64);
}

/// Maps a weight digest to (0, 1]: (low64+1) / 2^64.
double weight_of(const Digest256& digest) {
  return (static_cast<double>(Hash256(digest).low64()) + 1.0) * 0x1.0p-64;
}

}  // namespace

double rendezvous_weight(const Hash256& block_hash, NodeId node) {
  std::uint8_t block[64];
  fill_blocks(block, 1, block_hash);
  put_id(block, node);
  Digest256 digest;
  Sha256::hash_blocks(block, &digest, 1);
  return weight_of(digest);
}

NodeId rendezvous_top1(const Hash256& key, const std::vector<NodeInfo>& members) {
  if (members.empty()) throw std::invalid_argument("rendezvous_top1: empty cluster");
  std::uint8_t blocks[kBatch * 64];
  Digest256 digests[kBatch];
  fill_blocks(blocks, std::min(kBatch, members.size()), key);
  NodeId best = kNoNode;
  double best_score = 0;
  for (std::size_t base = 0; base < members.size(); base += kBatch) {
    const std::size_t n = std::min(kBatch, members.size() - base);
    for (std::size_t i = 0; i < n; ++i) put_id(blocks + 64 * i, members[base + i].id);
    Sha256::hash_blocks(blocks, digests, n);
    for (std::size_t i = 0; i < n; ++i) {
      // storers()' order, first element: highest score, then lowest id.
      const NodeId id = members[base + i].id;
      const double score = -1.0 / std::log(weight_of(digests[i]));
      if (base + i == 0 || score > best_score || (score == best_score && id < best)) {
        best = id;
        best_score = score;
      }
    }
  }
  return best;
}

std::vector<NodeId> RendezvousAssigner::storers(const Hash256& block_hash, std::uint64_t height,
                                                const std::vector<NodeInfo>& members,
                                                std::size_t r) const {
  (void)height;
  if (members.empty()) throw std::invalid_argument("RendezvousAssigner: empty cluster");
  struct Scored {
    double score;
    NodeId id;
  };
  // Clusters of up to kBatch members score on the stack.
  Scored small[kBatch];
  std::vector<Scored> large;
  if (members.size() > kBatch) large.resize(members.size());
  Scored* const scored = members.size() > kBatch ? large.data() : small;
  std::uint8_t blocks[kBatch * 64];
  Digest256 digests[kBatch];
  fill_blocks(blocks, std::min(kBatch, members.size()), block_hash);
  for (std::size_t base = 0; base < members.size(); base += kBatch) {
    const std::size_t n = std::min(kBatch, members.size() - base);
    for (std::size_t i = 0; i < n; ++i) put_id(blocks + 64 * i, members[base + i].id);
    Sha256::hash_blocks(blocks, digests, n);
    for (std::size_t i = 0; i < n; ++i) {
      const NodeInfo& m = members[base + i];
      const double u = weight_of(digests[i]);
      // Weighted rendezvous (Cache Array Routing Protocol form):
      // score = -capacity / ln(u); higher capacity wins proportionally often.
      const double score =
          capacity_weighted_ ? -m.capacity / std::log(u) : -1.0 / std::log(u);
      scored[base + i] = {score, m.id};
    }
  }
  const std::size_t take = std::min(r, members.size());
  std::partial_sort(scored, scored + take, scored + members.size(),
                    [](const Scored& a, const Scored& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.id < b.id;
                    });
  std::vector<NodeId> out;
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) out.push_back(scored[i].id);
  return out;
}

std::vector<NodeId> RoundRobinAssigner::storers(const Hash256& block_hash, std::uint64_t height,
                                                const std::vector<NodeInfo>& members,
                                                std::size_t r) const {
  (void)block_hash;
  if (members.empty()) throw std::invalid_argument("RoundRobinAssigner: empty cluster");
  // Stable order by id, start at height mod size, wrap for replicas.
  std::vector<NodeId> sorted;
  sorted.reserve(members.size());
  for (const NodeInfo& m : members) sorted.push_back(m.id);
  std::sort(sorted.begin(), sorted.end());
  const std::size_t take = std::min(r, sorted.size());
  std::vector<NodeId> out;
  out.reserve(take);
  const std::size_t start = static_cast<std::size_t>(height % sorted.size());
  for (std::size_t i = 0; i < take; ++i) out.push_back(sorted[(start + i) % sorted.size()]);
  return out;
}

}  // namespace ici::cluster
