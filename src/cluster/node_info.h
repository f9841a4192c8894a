// Node descriptors consumed by clustering and assignment: identity, network
// coordinate (for latency-aware clustering), and storage capacity weight
// (for capacity-aware assignment).
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/hash.h"
#include "sim/network.h"

namespace ici::cluster {

using sim::Coord;
using sim::kNoNode;
using sim::NodeId;

struct NodeInfo {
  NodeId id = 0;
  Coord coord;
  /// Relative storage capacity (1.0 = standard node). Assignment weights by
  /// this so a 2.0 node holds ~2x the blocks.
  double capacity = 1.0;
};

/// Generates n nodes with coordinates from `regions` gaussian blobs
/// (mimicking geographic regions) and, when `heterogeneous_capacity`,
/// capacities lognormal-ish around 1 (otherwise every capacity is 1.0).
/// Deterministic for a given seed — every experiment shares this topology
/// generator.
[[nodiscard]] std::vector<NodeInfo> generate_topology(std::size_t n, std::size_t regions,
                                                      std::uint64_t seed,
                                                      double world_size = 100.0,
                                                      bool heterogeneous_capacity = false);

/// Regions in the topology every network facade (ICI and the baselines)
/// generates; its nodes all have capacity 1.0.
inline constexpr std::size_t kFleetRegions = 5;

}  // namespace ici::cluster
