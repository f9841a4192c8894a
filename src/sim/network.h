// Simulated point-to-point network.
//
// Latency model per message:
//   arrival = departure + size/uplink_bw + propagation(dist) + jitter
// where departure respects the sender's uplink serialization (back-to-back
// sends queue behind each other), so fan-out cost is modelled realistically:
// a full-replication node gossiping a 1 MiB block to 8 peers pays 8 transfer
// times on its uplink.
//
// Traffic accounting is byte-accurate per node and global; the experiment
// harnesses read it directly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"

namespace ici::sim {

class FaultInjector;

using NodeId = std::uint32_t;
constexpr NodeId kNoNode = UINT32_MAX;

/// 2-D network coordinate; Euclidean distance maps to propagation delay.
struct Coord {
  double x = 0.0;
  double y = 0.0;
};

[[nodiscard]] double distance(const Coord& a, const Coord& b);

/// Base class for wire messages. wire_size() is what the network charges;
/// subclasses report their realistic serialized size.
struct MessageBase {
  virtual ~MessageBase() = default;
  [[nodiscard]] virtual std::size_t wire_size() const = 0;
  [[nodiscard]] virtual const char* type_name() const = 0;
};

using MessagePtr = std::shared_ptr<const MessageBase>;

/// Protocol endpoint. Implementations downcast the message by type_name or
/// dynamic_cast.
class INode {
 public:
  virtual ~INode() = default;
  virtual void on_message(NodeId from, const MessagePtr& msg) = 0;
};

struct NetworkConfig {
  /// Propagation: delay_us = base + dist * us_per_unit.
  double base_propagation_us = 2'000;   // 2 ms floor
  double us_per_distance_unit = 1'000;  // coordinate space in "ms"
  /// Lognormal-ish jitter: gaussian stddev, clamped at 0.
  double jitter_stddev_us = 500;
  /// Default node uplink, bytes/second (20 Mbit/s ≈ typical paper setting).
  double default_uplink_bps = 2.5e6;
  /// Fixed per-message framing overhead added to wire_size.
  std::size_t per_message_overhead = 64;
  std::uint64_t seed = 7;
};

struct NodeTraffic {
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

class Network {
 public:
  Network(Simulator& simulator, NetworkConfig cfg = {});

  /// Registers a node; returns its id (dense, starting at 0).
  NodeId add_node(INode* node, Coord coord, double uplink_bps = 0.0);

  /// Pre-sizes the slot table: a facade that knows its node count up front
  /// avoids the O(log N) reallocation copies of 100k+ NodeSlots.
  void reserve_nodes(std::size_t n) { nodes_.reserve(n); }

  /// Rebinds an id to a (new) endpoint — used when a node restarts.
  void rebind(NodeId id, INode* node);

  void set_online(NodeId id, bool online);
  [[nodiscard]] bool online(NodeId id) const;
  /// Number of registered nodes currently online.
  [[nodiscard]] std::size_t online_count() const { return online_count_; }

  /// Sends msg from → to. Messages to offline nodes are charged to the
  /// sender and then dropped (the sender cannot know yet). Self-sends are
  /// delivered with zero network cost after a minimal delay.
  ///
  /// The const& overload copies the pointer exactly once (into the delivery
  /// event); the && overload moves it there, so a send of a moved-in
  /// message touches the shared_ptr control block zero times.
  void send(NodeId from, NodeId to, const MessagePtr& msg) { send_impl(from, to, MessagePtr(msg)); }
  void send(NodeId from, NodeId to, MessagePtr&& msg) { send_impl(from, to, std::move(msg)); }

  /// Convenience fan-out; uplink serialization makes order matter slightly,
  /// recipients are contacted in the given order. Wire size and transfer
  /// time are computed once for the whole fan-out, and each recipient costs
  /// one shared_ptr copy (one control-block touch), one jitter draw — in
  /// recipient order, exactly as repeated send() calls would draw — and one
  /// inline event.
  void multicast(NodeId from, const std::vector<NodeId>& to, const MessagePtr& msg);

  [[nodiscard]] const Coord& coord(NodeId id) const;
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// Round-trip-ish latency estimate between two nodes ignoring bandwidth —
  /// used by clustering quality metrics.
  [[nodiscard]] double propagation_us(NodeId a, NodeId b) const;

  [[nodiscard]] const NodeTraffic& traffic(NodeId id) const;
  [[nodiscard]] NodeTraffic total_traffic() const;
  void reset_traffic();

  [[nodiscard]] Simulator& simulator() { return sim_; }
  [[nodiscard]] const NetworkConfig& config() const { return cfg_; }

  /// Installs (or, with nullptr, removes) the fault-injection hook consulted
  /// on every scheduled non-loopback delivery (sim/faults.h). With no
  /// injector the send path draws zero fault RNG values and is bit-identical
  /// to a build without the hook. Owned by the caller; FaultInjector
  /// installs/uninstalls itself on construction/destruction.
  void install_faults(FaultInjector* faults) { faults_ = faults; }
  [[nodiscard]] FaultInjector* faults() const { return faults_; }

 private:
  void send_impl(NodeId from, NodeId to, MessagePtr msg);
  /// Computes departure/arrival for one recipient (advancing the sender's
  /// uplink and drawing the sender's jitter stream in call order) and
  /// schedules the delivery event on the *receiver's* lane. `transfer_us`
  /// is hoisted by the caller since it only depends on the sender and the
  /// wire size.
  void schedule_delivery(NodeId from, NodeId to, std::size_t wire, double transfer_us,
                         MessagePtr msg);
  void deliver(NodeId from, NodeId to, std::size_t wire, const MessagePtr& msg);

  /// Per-node slot. Hot fields are touched only from the owning node's
  /// event lane (uplink_busy_until + jitter_rng by its sends, traffic rx
  /// by its deliveries), or from sequential contexts (online flips), so
  /// sharded execution needs no per-slot locking. The jitter stream is
  /// per-*sender* — splitmix-derived from the network seed and node id —
  /// so draw order is the sender's send order, invariant under the lane
  /// count (the old shared stream would interleave nondeterministically).
  struct NodeSlot {
    INode* endpoint = nullptr;
    Coord coord;
    double uplink_bps = 0.0;
    bool online = true;
    SimTime uplink_busy_until = 0;
    NodeTraffic traffic;
    ici::Rng jitter_rng{0};
  };

  Simulator& sim_;
  NetworkConfig cfg_;
  FaultInjector* faults_ = nullptr;
  std::vector<NodeSlot> nodes_;
  std::size_t online_count_ = 0;
};

}  // namespace ici::sim
