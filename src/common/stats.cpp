#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ici {

void RunningStat::add(double x) {
  ++n_;
  sum_ += x;
  if (n_ == 1) {
    mean_ = x;
    min_ = x;
    max_ = x;
    m2_ = 0.0;
    return;
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double RunningStat::cv() const {
  if (n_ == 0 || mean_ == 0.0) return 0.0;
  return stddev() / mean_;
}

Histogram::Histogram(const Histogram& other) {
  const std::lock_guard<std::mutex> lk(other.mu_);
  samples_ = other.samples_;
  sorted_ = other.sorted_;
}

Histogram& Histogram::operator=(const Histogram& other) {
  if (this == &other) return *this;
  std::vector<double> copy;
  bool sorted = true;
  {
    const std::lock_guard<std::mutex> lk(other.mu_);
    copy = other.samples_;
    sorted = other.sorted_;
  }
  const std::lock_guard<std::mutex> lk(mu_);
  samples_ = std::move(copy);
  sorted_ = sorted;
  return *this;
}

void Histogram::add(double x) {
  const std::lock_guard<std::mutex> lk(mu_);
  samples_.push_back(x);
  sorted_ = false;
}

void Histogram::ensure_sorted_locked() const {
  if (sorted_) return;
  std::sort(samples_.begin(), samples_.end());
  sorted_ = true;
}

double Histogram::sum_locked() const {
  // Summed in sorted order so the floating-point rounding is canonical
  // for the sample multiset, independent of insertion order.
  ensure_sorted_locked();
  double total = 0.0;
  for (const double v : samples_) total += v;
  return total;
}

std::uint64_t Histogram::count() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return samples_.size();
}

double Histogram::sum() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return sum_locked();
}

double Histogram::mean() const {
  const std::lock_guard<std::mutex> lk(mu_);
  if (samples_.empty()) return 0.0;
  return sum_locked() / static_cast<double>(samples_.size());
}

double Histogram::min() const {
  const std::lock_guard<std::mutex> lk(mu_);
  if (samples_.empty()) return 0.0;
  ensure_sorted_locked();
  return samples_.front();
}

double Histogram::max() const {
  const std::lock_guard<std::mutex> lk(mu_);
  if (samples_.empty()) return 0.0;
  ensure_sorted_locked();
  return samples_.back();
}

double Histogram::stddev() const {
  const std::lock_guard<std::mutex> lk(mu_);
  const std::size_t n = samples_.size();
  if (n < 2) return 0.0;
  const double mean = sum_locked() / static_cast<double>(n);
  double m2 = 0.0;
  for (const double v : samples_) m2 += (v - mean) * (v - mean);
  return std::sqrt(m2 / static_cast<double>(n - 1));
}

double Histogram::percentile(double p) const {
  const std::lock_guard<std::mutex> lk(mu_);
  if (samples_.empty()) return 0.0;
  ensure_sorted_locked();
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank with linear interpolation between adjacent ranks.
  const double rank = (p / 100.0) * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

std::size_t LogHistogram::bucket_of(double x) {
  if (!(x >= std::ldexp(1.0, kMinExp))) return 0;        // also NaN
  if (x >= std::ldexp(1.0, kMaxExp)) return kBuckets - 1;  // also +inf
  int exp = 0;
  const double mant = std::frexp(x, &exp);  // x = mant * 2^exp, mant in [0.5, 1)
  const auto octave = static_cast<std::size_t>(exp - 1 - kMinExp);
  const int sub = std::min(kSubBuckets - 1, static_cast<int>((mant * 2.0 - 1.0) * kSubBuckets));
  return 1 + octave * kSubBuckets + static_cast<std::size_t>(sub);
}

double LogHistogram::bucket_value(std::size_t bucket) {
  if (bucket == 0) return 0.0;
  if (bucket == kBuckets - 1) return std::ldexp(1.0, kMaxExp);
  const std::size_t octave = (bucket - 1) / kSubBuckets;
  const std::size_t sub = (bucket - 1) % kSubBuckets;
  return std::ldexp(1.0 + (static_cast<double>(sub) + 0.5) / kSubBuckets,
                    static_cast<int>(octave) + kMinExp);
}

void LogHistogram::add(double x) {
  const std::lock_guard<std::mutex> lk(mu_);
  if (buckets_.empty()) buckets_.assign(kBuckets, 0);
  ++buckets_[bucket_of(x)];
  min_ = n_ == 0 ? x : std::min(min_, x);
  max_ = n_ == 0 ? x : std::max(max_, x);
  sum_ += x;
  ++n_;
}

std::uint64_t LogHistogram::count() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return n_;
}

double LogHistogram::sum() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return sum_;
}

double LogHistogram::min() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return min_;
}

double LogHistogram::max() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return max_;
}

double LogHistogram::value_at_locked(std::uint64_t k) const {
  if (k == 0) return min_;
  if (k + 1 >= n_) return max_;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen > k) return std::clamp(bucket_value(b), min_, max_);
  }
  return max_;
}

double LogHistogram::percentile(double p) const {
  const std::lock_guard<std::mutex> lk(mu_);
  if (n_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Same rank rule as Histogram::percentile.
  const double rank = (p / 100.0) * static_cast<double>(n_ - 1);
  const auto lo = static_cast<std::uint64_t>(rank);
  const std::uint64_t hi = std::min(lo + 1, n_ - 1);
  const double frac = rank - static_cast<double>(lo);
  return value_at_locked(lo) * (1.0 - frac) + value_at_locked(hi) * frac;
}

std::string format_bytes(double bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int unit = 0;
  double v = bytes;
  while (std::abs(v) >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), unit == 0 ? "%.0f %s" : "%.2f %s", v, kUnits[unit]);
  return buf;
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace ici
