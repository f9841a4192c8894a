#include "sim/simulator.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace ici::sim {

thread_local Simulator::ExecContext Simulator::tls_ctx_{};

void Simulator::configure_shards(std::size_t shards, SimTime lookahead) {
  if (!lanes_.empty()) throw std::logic_error("Simulator: shards already configured");
  if (!global_q_.empty())
    throw std::logic_error("Simulator: configure_shards after events were scheduled");
  if (shards == 0) shards = 1;
  lanes_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) lanes_.push_back(std::make_unique<Lane>());
  lookahead_ = std::max<SimTime>(1, lookahead);
}

void Simulator::set_node_lane(std::uint32_t node, std::uint32_t lane) {
  if (lane >= lanes_.size()) throw std::logic_error("Simulator: lane out of range");
  if (node >= lane_of_node_.size()) lane_of_node_.resize(node + 1, kNoLane);
  lane_of_node_[node] = lane;
  ensure_source(node);
}

std::size_t Simulator::pending() const {
  std::size_t n = global_q_.size();
  for (const auto& lane : lanes_) n += lane->q.size() + lane->inbox.size();
  return n;
}

EventQueue::Stats Simulator::queue_stats() const {
  EventQueue::Stats s = global_q_.stats();
  for (const auto& lane : lanes_) {
    const EventQueue::Stats& ls = lane->q.stats();
    s.scheduled += ls.scheduled;
    s.executed += ls.executed;
    s.peak_pending += ls.peak_pending;
    s.far_events += ls.far_events;
    s.heap_fallback_events += ls.heap_fallback_events;
  }
  return s;
}

Simulator::ShardStats Simulator::shard_stats() const {
  ShardStats s;
  s.shards = shard_count();
  s.rounds = rounds_;
  s.barriers = barriers_;
  s.lookahead_us = lanes_.empty() ? 0 : lookahead_;
  s.local_msgs = local_msgs_.load(std::memory_order_relaxed);
  s.xshard_msgs = xshard_msgs_.load(std::memory_order_relaxed);
  return s;
}

std::size_t Simulator::run(std::size_t max_events) {
  if (lanes_.empty()) return run_unsharded(kNoDeadline, max_events);
  return run_sharded(kNoDeadline, max_events);
}

std::size_t Simulator::run_until(SimTime deadline) {
  const std::size_t n = lanes_.empty() ? run_unsharded(deadline, SIZE_MAX)
                                       : run_sharded(deadline, SIZE_MAX);
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::size_t Simulator::run_unsharded(SimTime deadline, std::size_t max_events) {
  std::size_t n = 0;
  while (!global_q_.empty() && n < max_events) {
    const EventQueue::NextRef nx = global_q_.peek_next();
    if (nx.at > deadline) break;
    // Advance the clock before executing so the event observes its own time.
    now_ = nx.at;
    tls_ctx_ = ExecContext{this, nx.owner, kNoLane, nx.at, nx.key};
    global_q_.run_next();
    tls_ctx_.sim = nullptr;
    ++n;
  }
  return n;
}

void Simulator::drain_mailboxes() {
  for (auto& lp : lanes_) {
    Lane& lane = *lp;
    const std::lock_guard<std::mutex> lk(lane.mu);
    if (lane.inbox.empty()) continue;
    // Insertion order into the inbox is whatever the source lanes raced
    // to; sort by (at, key) so the target queue's structural behaviour —
    // and with it every downstream tie-break — is canonical.
    std::sort(lane.inbox.begin(), lane.inbox.end(), [](const Parcel& a, const Parcel& b) {
      if (a.at != b.at) return a.at < b.at;
      return a.key < b.key;
    });
    for (Parcel& p : lane.inbox) lane.q.schedule_keyed(p.at, p.key, p.owner, std::move(p.ev));
    lane.inbox.clear();
  }
}

void Simulator::run_lane(std::size_t lane, SimTime bound) {
  Lane& l = *lanes_[lane];
  std::size_t n = 0;
  SimTime last = 0;
  while (!l.q.empty()) {
    const EventQueue::NextRef nx = l.q.peek_next();
    if (nx.at >= bound) break;
    tls_ctx_ = ExecContext{this, nx.owner, static_cast<std::uint32_t>(lane), nx.at, nx.key};
    l.q.run_next();
    last = nx.at;
    ++n;
  }
  tls_ctx_.sim = nullptr;
  l.round_executed = n;
  l.round_last_at = last;
}

std::size_t Simulator::run_window(SimTime bound) {
  const std::size_t k = lanes_.size();
  if (k == 1) {
    // Single lane: the window is inherently sequential — skip the pool
    // dispatch (and the in_parallel_ buffering/mailbox machinery, which a
    // lone lane never needs) so --shards 1 costs nothing over unsharded.
    run_lane(0, bound);
  } else {
    in_parallel_ = true;
    ThreadPool::global().parallel_for(0, k, 1, [this, bound](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) run_lane(i, bound);
    });
    in_parallel_ = false;
  }
  std::size_t n = 0;
  SimTime last = now_;
  for (const auto& lp : lanes_) {
    n += lp->round_executed;
    if (lp->round_executed > 0 && lp->round_last_at > last) last = lp->round_last_at;
  }
  now_ = last;
  return n;
}

std::size_t Simulator::run_sequential_at(SimTime m, std::size_t budget) {
  std::size_t n = 0;
  while (n < budget) {
    EventQueue* best = nullptr;
    std::uint64_t best_key = 0;
    std::uint32_t best_owner = kNoOwner;
    std::uint32_t best_lane = kNoLane;
    const auto consider = [&](EventQueue& q, std::uint32_t lane) {
      if (q.empty()) return;
      const EventQueue::NextRef nx = q.peek_next();
      if (nx.at != m) return;
      if (best == nullptr || nx.key < best_key) {
        best = &q;
        best_key = nx.key;
        best_owner = nx.owner;
        best_lane = lane;
      }
    };
    consider(global_q_, kNoLane);
    for (std::size_t i = 0; i < lanes_.size(); ++i)
      consider(lanes_[i]->q, static_cast<std::uint32_t>(i));
    if (best == nullptr) break;
    tls_ctx_ = ExecContext{this, best_owner, best_lane, m, best_key};
    best->run_next();
    tls_ctx_.sim = nullptr;
    ++n;
  }
  return n;
}

std::size_t Simulator::run_sharded(SimTime deadline, std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events) {
    drain_mailboxes();
    flush_barrier();

    SimTime n_min = kNoDeadline;
    for (const auto& lp : lanes_) {
      if (!lp->q.empty()) n_min = std::min(n_min, lp->q.next_time());
    }
    const SimTime g = global_q_.empty() ? kNoDeadline : global_q_.next_time();
    const SimTime m = std::min(n_min, g);
    if (m == kNoDeadline || m > deadline) break;
    ++rounds_;

    // Conservative window bound: lanes may safely run past n_min by the
    // lookahead (cross-lane arrivals land at >= n_min + L, sim/lbts.h),
    // but never past a pending global event (it must interleave in key
    // order) or the caller's deadline.
    SimTime bound = kNoDeadline;
    if (n_min != kNoDeadline && n_min <= kNoDeadline - lookahead_) bound = n_min + lookahead_;
    bound = std::min(bound, g);
    if (deadline != kNoDeadline) bound = std::min(bound, deadline + 1);

    if (m < bound) {
      ++barriers_;
      now_ = m;
      executed += run_window(bound);
    } else {
      // bound == m == g: a global event gates the window. Run everything
      // at exactly m — across the global queue and all lanes — in key
      // order on the coordinating thread.
      now_ = m;
      executed += run_sequential_at(m, max_events - executed);
    }
  }
  // Parcels scheduled past the deadline in the final window still need
  // filing (pending() counts them, a later run executes them), and the
  // facade's buffered callbacks must land before the harness reads state.
  drain_mailboxes();
  flush_barrier();
  return executed;
}

}  // namespace ici::sim
