// Intra-cluster block→node assignment (DESIGN.md D2/D3).
//
// Given a block hash and the current members of a cluster, an assigner picks
// the r members responsible for storing that block's body. The choice must
// be computable by *any* node from public information (hash + membership),
// so storers and readers agree without coordination.
//
//  * RendezvousAssigner — highest-random-weight hashing, optionally weighted
//    by node capacity. Minimal disruption on membership change: only blocks
//    whose top-r set contained the departed node move.
//  * RoundRobinAssigner — height mod members; simple, but every membership
//    change reshuffles everything (ablated in exp12).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/node_info.h"

namespace ici::cluster {

class BlockAssigner {
 public:
  virtual ~BlockAssigner() = default;

  /// Picks min(r, members.size()) distinct storers for the block.
  /// `members` must be the cluster's current membership (any order).
  [[nodiscard]] virtual std::vector<NodeId> storers(const Hash256& block_hash,
                                                    std::uint64_t height,
                                                    const std::vector<NodeInfo>& members,
                                                    std::size_t r) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

class RendezvousAssigner final : public BlockAssigner {
 public:
  explicit RendezvousAssigner(bool capacity_weighted = false)
      : capacity_weighted_(capacity_weighted) {}

  [[nodiscard]] std::vector<NodeId> storers(const Hash256& block_hash, std::uint64_t height,
                                            const std::vector<NodeInfo>& members,
                                            std::size_t r) const override;
  [[nodiscard]] std::string name() const override {
    return capacity_weighted_ ? "rendezvous-weighted" : "rendezvous";
  }

 private:
  bool capacity_weighted_;
};

class RoundRobinAssigner final : public BlockAssigner {
 public:
  [[nodiscard]] std::vector<NodeId> storers(const Hash256& block_hash, std::uint64_t height,
                                            const std::vector<NodeInfo>& members,
                                            std::size_t r) const override;
  [[nodiscard]] std::string name() const override { return "round-robin"; }
};

/// Rendezvous weight of (block, node): uniform in (0,1] from a tagged hash.
/// Exposed for tests of distribution properties.
[[nodiscard]] double rendezvous_weight(const Hash256& block_hash, NodeId node);

/// The unweighted rendezvous winner for `key`: the same member as
/// RendezvousAssigner().storers(key, 0, members, 1).front() (score
/// -1/ln(u), ties to the lower id), found without allocating. Safe to call
/// from several threads at once. Throws std::invalid_argument when
/// `members` is empty.
[[nodiscard]] NodeId rendezvous_top1(const Hash256& key, const std::vector<NodeInfo>& members);

}  // namespace ici::cluster
