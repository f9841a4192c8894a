// Lightweight statistics used by the metrics layer and the experiment
// harnesses: streaming mean/variance (Welford), a sample-retaining
// histogram with exact percentiles, and a fixed-size log-bucketed one for
// host-time samples.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ici {

/// Streaming mean / variance / min / max. O(1) memory.
class RunningStat {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }
  /// Coefficient of variation (stddev/mean); 0 when mean is 0.
  [[nodiscard]] double cv() const;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Retains all samples; percentiles are exact (nearest-rank on the sorted
/// sample). Fine for simulation scales (≤ millions of samples).
///
/// Thread-safe: add() may be called from concurrent event lanes (sim
/// sharding). Every aggregate — including sum/mean/stddev — is computed
/// from the *sorted* sample on demand, so the results are a pure function
/// of the sample multiset: identical no matter which order lanes appended
/// in (a streaming Welford accumulator would leak insertion order through
/// floating-point non-associativity and break the cross-K bit-identity
/// contract).
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);

  void add(double x);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double sum() const;

  /// p in [0,100]. Returns 0 when empty.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double p50() const { return percentile(50); }
  [[nodiscard]] double p90() const { return percentile(90); }
  [[nodiscard]] double p99() const { return percentile(99); }

 private:
  /// Sorts samples_ if needed. Caller must hold mu_.
  void ensure_sorted_locked() const;
  [[nodiscard]] double sum_locked() const;

  mutable std::mutex mu_;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Bounded-memory distribution for host-time (wall-clock) samples, which
/// differ run to run anyway: exact count, sum, min and max; percentiles
/// from fixed log-spaced buckets, 32 linear sub-buckets per power of two,
/// each reported at its midpoint (at most 1/64 relative error; the lowest
/// and highest ranks are the exact min and max). Samples below 2^-10 or
/// from 2^38 on share an end bucket. The sum follows insertion order, so
/// unlike Histogram it is not canonical for the sample multiset.
///
/// Thread-safe: add() may be called from concurrent event lanes.
class LogHistogram {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// p in [0,100], interpolated between adjacent ranks like
  /// Histogram::percentile. Returns 0 when empty.
  [[nodiscard]] double percentile(double p) const;

 private:
  /// Sub-buckets per power of two, over [2^kMinExp, 2^kMaxExp).
  static constexpr int kSubBuckets = 32;
  static constexpr int kMinExp = -10;
  static constexpr int kMaxExp = 38;
  static constexpr std::size_t kOctaves = kMaxExp - kMinExp;
  /// Bucket 0 holds samples below 2^kMinExp, the last one those from
  /// 2^kMaxExp on.
  static constexpr std::size_t kBuckets = kOctaves * kSubBuckets + 2;

  [[nodiscard]] static std::size_t bucket_of(double x);
  /// The value a bucket reports: its midpoint (the end buckets: their edge).
  [[nodiscard]] static double bucket_value(std::size_t bucket);
  /// Estimate of the k-th smallest sample (0-based). Caller holds mu_.
  [[nodiscard]] double value_at_locked(std::uint64_t k) const;

  mutable std::mutex mu_;
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  /// kBuckets counts once the first sample lands (none before).
  std::vector<std::uint64_t> buckets_;
};

/// "12.3 KiB", "4.0 MiB", ... — used by table output.
[[nodiscard]] std::string format_bytes(double bytes);

/// Fixed-precision double formatting ("%.*f") without iostream state leaks.
[[nodiscard]] std::string format_double(double v, int precision);

}  // namespace ici
