// Simulator: the clock + event queue facade protocols schedule against.
//
// Two execution modes share one deterministic contract (docs/SIMULATOR.md):
//
// * Unsharded (default): a single calendar queue, events run one at a time
//   in (at, key) order on the calling thread.
// * Sharded (configure_shards): nodes are partitioned into K event lanes,
//   each owning its own calendar queue. The engine alternates between
//   *parallel windows* — every lane drains its events with `at` below a
//   conservative LBTS-style bound on PR 2's thread pool (sim/lbts.h
//   derives the lookahead from the network latency floor) — and
//   *sequential rounds* that pop the globally-earliest event when a
//   global-queue (harness/churn) event gates the window. Cross-lane
//   scheduling during a window goes through per-lane mailboxes, drained
//   and (at, key)-sorted at the next barrier.
//
// Determinism tie-break: every event carries a u64 key packing
// (source node id << 32 | per-source counter); harness context uses source
// id 0xFFFFFFFF, which sorts last. Keys are drawn from the *scheduling*
// context in its execution order, so the key sequence — and therefore the
// total (at, key) order — is identical for every K. All sim metrics are
// bit-identical at --shards 1/2/8 (tests/test_shard_determinism.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace ici::sim {

class Simulator {
 public:
  /// Source/owner id for harness (non-node) scheduling contexts.
  static constexpr std::uint32_t kNoOwner = EventQueue::kNoOwner;
  /// "Not on any lane": unsharded mode, unmapped nodes, harness context.
  static constexpr std::uint32_t kNoLane = 0xFFFFFFFFu;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current sim time: the executing event's timestamp when called from
  /// inside an event (lanes advance independently during a parallel
  /// window), the engine clock otherwise.
  [[nodiscard]] SimTime now() const {
    return tls_ctx_.sim == this ? tls_ctx_.at : now_;
  }

  /// Schedules relative to now, owned by the *scheduling* node (the event
  /// runs on the current context's lane). Accepts any void() callable;
  /// captures up to InplaceEvent::kInlineCapacity bytes stay
  /// allocation-free.
  template <typename F>
  void after(SimTime delay, F&& action) {
    schedule_owned(context_node(), now() + delay, std::forward<F>(action));
  }

  /// Schedules at an absolute time on the current context's lane.
  /// Deadlines already in the past clamp to now — and are counted
  /// (late_events), because protocol logic scheduling into the past is
  /// almost always a bug the clamp would otherwise hide.
  template <typename F>
  void at(SimTime when, F&& action) {
    schedule_owned(context_node(), clamp_when(when), std::forward<F>(action));
  }

  /// Schedules an event that executes *as* `node` — on that node's lane
  /// once sharding is configured. All message deliveries route through
  /// this (sim/network.cpp) so receive handlers run where the receiver's
  /// state lives. Also tallies the lane-local / cross-lane message split.
  template <typename F>
  void schedule_for(std::uint32_t node, SimTime when, F&& action) {
    note_routing(node);
    schedule_owned(node, clamp_when(when), std::forward<F>(action));
  }

  /// Splits the simulation into `shards` event lanes with the given
  /// conservative lookahead (µs, from sim/lbts.h). Call once, before any
  /// event is scheduled; nodes are then assigned via set_node_lane.
  void configure_shards(std::size_t shards, SimTime lookahead);

  /// Maps `node` onto lane `lane` (< shard count). Unmapped nodes and the
  /// harness share the sequential global queue.
  void set_node_lane(std::uint32_t node, std::uint32_t lane);

  /// Runs at every window barrier (and once before the engine returns) on
  /// the coordinating thread, with no lane executing. Network facades use
  /// it to flush callbacks buffered during parallel windows in canonical
  /// (at, key) order.
  void set_barrier_hook(std::function<void()> hook) { barrier_hook_ = std::move(hook); }

  /// Runs events until the queue drains or `max_events` fire. Returns the
  /// number of events executed. With lanes configured the cap is honored
  /// at window granularity (facades always run unbounded).
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs events with time ≤ deadline; the clock ends at
  /// max(now, deadline) even if the queue drained early.
  std::size_t run_until(SimTime deadline);

  [[nodiscard]] bool idle() const { return pending() == 0; }
  [[nodiscard]] std::size_t pending() const;

  /// Count of at()/schedule_for() calls whose deadline was clamped to now.
  /// Deterministic and K-invariant; the network facades export it as the
  /// `sim.late_events` counter and the deterministic-network test asserts
  /// it stays zero.
  [[nodiscard]] std::uint64_t late_events() const {
    return late_events_.load(std::memory_order_relaxed);
  }

  /// Structural queue instrumentation summed across the global queue and
  /// all lanes. scheduled/executed/heap_fallbacks are K-invariant;
  /// peak_pending (sum of per-queue peaks) and far_events depend on the
  /// per-lane calendar geometry and are excluded from the cross-K
  /// bit-identity contract.
  [[nodiscard]] EventQueue::Stats queue_stats() const;

  /// Sharded-engine instrumentation (sim.shard_* counters). local/xshard
  /// tally schedule_for routing: a delivery is cross-shard when the
  /// scheduling context's lane differs from the receiver's.
  struct ShardStats {
    std::uint64_t shards = 1;
    std::uint64_t rounds = 0;    // engine rounds (windows + sequential steps)
    std::uint64_t barriers = 0;  // parallel windows joined (barrier waits)
    SimTime lookahead_us = 0;
    std::uint64_t local_msgs = 0;
    std::uint64_t xshard_msgs = 0;
  };
  [[nodiscard]] ShardStats shard_stats() const;

  /// True while lanes are draining a parallel window — facades use this to
  /// decide between applying a callback inline (sequential contexts) and
  /// buffering it for the barrier flush.
  [[nodiscard]] bool in_parallel_phase() const { return in_parallel_; }

  /// (at, key) of the event being executed on this thread ({now, 0} from
  /// harness context). Facades record it with buffered callbacks so the
  /// barrier flush can replay them in canonical order.
  struct EventRef {
    SimTime at;
    std::uint64_t key;
  };
  [[nodiscard]] EventRef current_event() const {
    if (tls_ctx_.sim == this) return EventRef{tls_ctx_.at, tls_ctx_.key};
    return EventRef{now_, 0};
  }

  /// Lane of the event being executed on this thread (kNoLane otherwise).
  [[nodiscard]] std::uint32_t current_lane() const {
    return tls_ctx_.sim == this ? tls_ctx_.lane : kNoLane;
  }

  /// Lane a node is mapped to (kNoLane when unsharded or unmapped).
  [[nodiscard]] std::uint32_t lane_of(std::uint32_t node) const { return lane_for(node); }

  [[nodiscard]] std::size_t shard_count() const {
    return lanes_.empty() ? 1 : lanes_.size();
  }

 private:
  /// Mailbox parcel: a fully-keyed event waiting to be filed into its
  /// target lane's queue at the next barrier.
  struct Parcel {
    SimTime at = 0;
    std::uint64_t key = 0;
    std::uint32_t owner = kNoOwner;
    InplaceEvent ev;
  };

  struct Lane {
    EventQueue q;
    std::mutex mu;              // guards inbox during parallel windows
    std::vector<Parcel> inbox;  // cross-lane arrivals, sorted at drain
    std::size_t round_executed = 0;
    SimTime round_last_at = 0;
  };

  /// Per-thread execution context. `sim` tags which simulator the context
  /// belongs to so nested/foreign pool work never misattributes.
  struct ExecContext {
    const void* sim = nullptr;
    std::uint32_t node = kNoOwner;
    std::uint32_t lane = kNoLane;
    SimTime at = 0;
    std::uint64_t key = 0;
  };
  static thread_local ExecContext tls_ctx_;

  static constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();

  [[nodiscard]] std::uint32_t context_node() const {
    return tls_ctx_.sim == this ? tls_ctx_.node : kNoOwner;
  }
  [[nodiscard]] std::uint32_t context_lane() const {
    return tls_ctx_.sim == this ? tls_ctx_.lane : kNoLane;
  }
  [[nodiscard]] std::uint32_t lane_for(std::uint32_t owner) const {
    if (owner == kNoOwner || owner >= lane_of_node_.size()) return kNoLane;
    return lane_of_node_[owner];
  }
  [[nodiscard]] SimTime clamp_when(SimTime when) {
    const SimTime now_t = now();
    if (when < now_t) {
      late_events_.fetch_add(1, std::memory_order_relaxed);
      when = now_t;
    }
    return when;
  }

  /// Grows the per-source key counter table. Growth is harness/sequential
  /// only — lanes index the table concurrently during windows, so a brand
  /// new source appearing mid-window is a facade wiring bug.
  void ensure_source(std::uint32_t src) {
    if (src == kNoOwner || src < src_seq_.size()) return;
    if (in_parallel_)
      throw std::logic_error("Simulator: unmapped event source during a parallel window");
    src_seq_.resize(src + 1, 0);
  }

  /// Next tie-break key for the scheduling context `src`: its per-source
  /// counter in the low 32 bits, `src` in the high bits. Counters advance
  /// in the source's execution order, which is K-invariant.
  [[nodiscard]] std::uint64_t draw_key(std::uint32_t src) {
    if (src == kNoOwner)
      return (std::uint64_t{kNoOwner} << 32) | (harness_seq_++ & 0xFFFFFFFFu);
    return (std::uint64_t{src} << 32) | (src_seq_[src]++ & 0xFFFFFFFFu);
  }

  void note_routing(std::uint32_t node) {
    if (lanes_.empty()) {
      local_msgs_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::uint32_t dst = lane_for(node);
    const std::uint32_t src = context_lane();
    if (src != kNoLane && dst != src) {
      xshard_msgs_.fetch_add(1, std::memory_order_relaxed);
    } else {
      local_msgs_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  template <typename F>
  void schedule_owned(std::uint32_t owner, SimTime when, F&& action) {
    const std::uint32_t src = context_node();
    ensure_source(src);
    ensure_source(owner);
    const std::uint64_t key = draw_key(src);
    const std::uint32_t lane = lane_for(owner);
    if (lane == kNoLane) {
      // Global (sequential) queue. Parallel-window handlers can never get
      // here: node contexts route to lanes, and harness code only runs
      // between windows — so a hit is a determinism bug, not a race.
      if (in_parallel_)
        throw std::logic_error("Simulator: global event scheduled during a parallel window");
      global_q_.schedule_keyed(when, key, owner, std::forward<F>(action));
      return;
    }
    if (in_parallel_ && lane != context_lane()) {
      Lane& target = *lanes_[lane];
      const std::lock_guard<std::mutex> lk(target.mu);
      Parcel& p = target.inbox.emplace_back();
      p.at = when;
      p.key = key;
      p.owner = owner;
      p.ev.emplace(std::forward<F>(action));
      return;
    }
    // Own lane (its thread), or any lane from a sequential context.
    lanes_[lane]->q.schedule_keyed(when, key, owner, std::forward<F>(action));
  }

  std::size_t run_unsharded(SimTime deadline, std::size_t max_events);
  std::size_t run_sharded(SimTime deadline, std::size_t max_events);
  /// Drains lane `lane` up to (excluding) `bound`; records per-round
  /// executed count / last timestamp for the coordinator.
  void run_lane(std::size_t lane, SimTime bound);
  /// Runs the parallel window [now_, bound) across all lanes; returns
  /// events executed and advances now_ to the last executed timestamp.
  std::size_t run_window(SimTime bound);
  /// Pops every event with at == m across the global queue and all lanes
  /// in ascending key order (the sequential phase). Returns count.
  std::size_t run_sequential_at(SimTime m, std::size_t budget);
  void drain_mailboxes();
  void flush_barrier() {
    if (barrier_hook_) barrier_hook_();
  }

  SimTime now_ = 0;
  std::atomic<std::uint64_t> late_events_{0};
  EventQueue global_q_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // empty = unsharded mode
  std::vector<std::uint32_t> lane_of_node_;
  std::vector<std::uint64_t> src_seq_;  // per-source key counters
  std::uint64_t harness_seq_ = 0;
  SimTime lookahead_ = 1;
  bool in_parallel_ = false;  // pool dispatch/join orders accesses
  std::function<void()> barrier_hook_;
  std::uint64_t rounds_ = 0;
  std::uint64_t barriers_ = 0;
  std::atomic<std::uint64_t> local_msgs_{0};
  std::atomic<std::uint64_t> xshard_msgs_{0};
};

}  // namespace ici::sim
