#pragma once

// Lightweight tracing for the simulator and the protocol stacks built on
// it. Two complementary primitives:
//
//  - Span: RAII scope that measures wall-clock time (std::chrono::steady_
//    clock) for CPU-bound sections (slice verification, RS encode, codec
//    work). When a sim clock is installed and sim time advances inside the
//    scope, the sim delta is recorded too — but sim time only moves inside
//    the event loop, so synchronous spans normally contribute wall samples
//    only.
//  - TraceSink::record_sim: explicit sample for asynchronous protocol
//    phases (bootstrap, retrieval, gossip) whose duration is a sim-time
//    difference between two events; wall time is meaningless there.
//
// Labels are slash-separated paths ("verify/slice"). Spans nest: a Span
// opened while another is active prefixes its label with the parent's
// effective path, so "fetch" inside "bootstrap" aggregates under
// "bootstrap/fetch".
//
// Sim samples aggregate in a metrics::Distribution, so their percentiles
// are exact (they feed deterministic artifact fields). Wall samples keep
// bounded memory however many a run records: exact count, total, min and
// max, and log-bucketed p50/p99 (ici::LogHistogram, ≤ 1/64 relative error).

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/counters.h"

namespace ici::obs {

// Per-label aggregate exported to bench reports. A label can carry wall
// samples, sim samples, or both.
struct LabelAggregate {
  std::string label;
  bool has_wall = false;
  bool has_sim = false;
  metrics::DistributionSummary wall_us;
  metrics::DistributionSummary sim_us;
};

class TraceSink {
 public:
  using SimClock = std::function<std::uint64_t()>;

  // Process-wide sink used by default; benches reset() it between phases
  // when they want per-phase attribution.
  static TraceSink& global();

  void record_wall(std::string_view label, double wall_us);
  void record_sim(std::string_view label, double sim_us);

  // Installs the sim-time source (normally a network's simulator). Returns
  // a token; clear_sim_clock(token) uninstalls only if that clock is still
  // the current one, so a short-lived network destroyed while another is
  // live cannot yank the survivor's clock.
  std::uint64_t set_sim_clock(SimClock clock);
  void clear_sim_clock(std::uint64_t token);
  [[nodiscard]] bool has_sim_clock() const { return static_cast<bool>(sim_clock_); }
  [[nodiscard]] std::uint64_t sim_now() const { return sim_clock_ ? sim_clock_() : 0; }

  // Aggregates for every label seen since the last reset(), sorted by label.
  [[nodiscard]] std::vector<LabelAggregate> aggregates() const;
  [[nodiscard]] const metrics::Distribution* sim_distribution(std::string_view label) const;

  // Drops all samples and the calling thread's span path stack; the sim
  // clock stays.
  void reset();

  // Span support: effective label of the innermost open span on the calling
  // thread ("" if none). Span stacks are per-thread so handlers on
  // concurrent event lanes nest independently.
  [[nodiscard]] const std::string& current_path() const;
  void push_span(std::string effective_label);
  void pop_span();

 private:
  struct LabelData {
    LogHistogram wall;
    metrics::Distribution sim;
  };
  /// The label's entry, created on first use. Caller must NOT hold mu_.
  [[nodiscard]] LabelData& label_data(std::string_view label);

  /// Calling thread's span stack for this sink (lazily created).
  [[nodiscard]] std::vector<std::string>& span_stack() const;

  /// Guards labels_ lookups/inserts; std::map node stability keeps the
  /// per-label references valid across concurrent inserts, and both
  /// aggregates' add() are themselves thread-safe.
  mutable std::mutex mu_;
  std::map<std::string, LabelData, std::less<>> labels_;
  SimClock sim_clock_;
  std::uint64_t clock_token_ = 0;
};

// RAII span. Spans opened on different threads (event lanes, docs/
// THREADING.md) nest per-thread; on each thread spans must be destroyed in
// LIFO order, which scoping guarantees.
class Span {
 public:
  explicit Span(std::string_view label, TraceSink& sink = TraceSink::global());
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] const std::string& label() const { return label_; }

 private:
  TraceSink& sink_;
  std::string label_;  // effective (nested) label
  std::chrono::steady_clock::time_point wall_start_;
  std::uint64_t sim_start_ = 0;
  bool sim_armed_ = false;
};

}  // namespace ici::obs
