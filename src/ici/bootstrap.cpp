#include "ici/bootstrap.h"

#include <algorithm>
#include <limits>

namespace ici::core {

cluster::NodeId Bootstrapper::add_joiner_nearest(IciNetwork& net, sim::Coord coord) {
  // Pick the cluster whose members are nearest on average — the same
  // latency-aware choice the clustering made for the original population.
  auto& dir = net.directory();
  std::size_t best_cluster = 0;
  double best_dist = std::numeric_limits<double>::max();
  for (std::size_t c = 0; c < dir.cluster_count(); ++c) {
    double total = 0.0;
    std::size_t count = 0;
    for (cluster::NodeId id : dir.members(c)) {
      total += sim::distance(coord, dir.info(id).coord);
      ++count;
    }
    if (count == 0) continue;
    const double mean = total / static_cast<double>(count);
    if (mean < best_dist) {
      best_dist = mean;
      best_cluster = c;
    }
  }
  return net.add_joiner(coord, best_cluster);
}

fleet::JoinReport Bootstrapper::run(IciNetwork& net, cluster::NodeId joiner,
                                    const sync::SyncConfig& cfg) {
  auto& dir = net.directory();
  const std::size_t cluster = dir.cluster_of(joiner);
  const sim::Coord coord = dir.info(joiner).coord;

  // Frontier candidates: cluster peers by distance, probing a couple past
  // the pull-peer budget so offline/slow peers don't starve the frontier.
  std::vector<cluster::NodeId> candidates;
  for (cluster::NodeId id : dir.members(cluster))
    if (id != joiner) candidates.push_back(id);
  std::sort(candidates.begin(), candidates.end(),
            [&](cluster::NodeId a, cluster::NodeId b) {
              const double da = sim::distance(coord, dir.info(a).coord);
              const double db = sim::distance(coord, dir.info(b).coord);
              if (da != db) return da < db;
              return a < b;
            });
  const std::size_t probe = std::max<std::size_t>(cfg.max_peers * 2, 4);
  if (candidates.size() > probe) candidates.resize(probe);

  fleet::JoinReport report = fleet::drive_join(net.runtime(), net.node(joiner), cfg, candidates);
  report.cluster = cluster;
  return report;
}

fleet::JoinReport Bootstrapper::join(IciNetwork& net, sim::Coord coord,
                                     const sync::SyncConfig& cfg) {
  return run(net, add_joiner_nearest(net, coord), cfg);
}

}  // namespace ici::core
