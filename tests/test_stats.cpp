#include "common/stats.h"

#include <gtest/gtest.h>

namespace ici {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 42.0);
  EXPECT_EQ(s.max(), 42.0);
  EXPECT_EQ(s.sum(), 42.0);
}

TEST(RunningStat, KnownSequence) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic sequence is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStat, CvZeroWhenMeanZero) {
  RunningStat s;
  s.add(-1.0);
  s.add(1.0);
  EXPECT_EQ(s.cv(), 0.0);
}

TEST(RunningStat, CvMatchesDefinition) {
  RunningStat s;
  for (double v : {10.0, 20.0, 30.0}) s.add(v);
  EXPECT_NEAR(s.cv(), s.stddev() / s.mean(), 1e-12);
}

TEST(Histogram, PercentilesOfUniformRamp) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(i);
  EXPECT_NEAR(h.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(h.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(h.p50(), 50.5, 0.01);
  EXPECT_NEAR(h.p99(), 99.01, 0.05);
}

TEST(Histogram, EmptyPercentileIsZero) {
  Histogram h;
  EXPECT_EQ(h.percentile(50), 0.0);
}

TEST(Histogram, SingleSampleAllPercentilesEqual) {
  Histogram h;
  h.add(7.0);
  EXPECT_EQ(h.percentile(0), 7.0);
  EXPECT_EQ(h.p50(), 7.0);
  EXPECT_EQ(h.p99(), 7.0);
}

TEST(Histogram, InterleavedAddAndQuery) {
  Histogram h;
  h.add(3.0);
  EXPECT_EQ(h.p50(), 3.0);
  h.add(1.0);
  h.add(2.0);
  EXPECT_EQ(h.p50(), 2.0);
  EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, ClampsOutOfRangePercentiles) {
  Histogram h;
  h.add(1.0);
  h.add(2.0);
  EXPECT_EQ(h.percentile(-5), 1.0);
  EXPECT_EQ(h.percentile(150), 2.0);
}

TEST(LogHistogram, EmptyIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.percentile(50), 0.0);
}

TEST(LogHistogram, EndRanksAreExactMinAndMax) {
  LogHistogram h;
  for (const double x : {3.0, 0.5, 1000.25, 7.0}) h.add(x);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1010.75);
  EXPECT_EQ(h.min(), 0.5);
  EXPECT_EQ(h.max(), 1000.25);
  EXPECT_EQ(h.percentile(0), 0.5);
  EXPECT_EQ(h.percentile(100), 1000.25);
  EXPECT_EQ(h.percentile(150), 1000.25);
}

TEST(LogHistogram, InteriorRanksWithinBucketBound) {
  LogHistogram h;
  Histogram exact;
  for (int i = 1; i <= 1000; ++i) {
    const double x = 0.37 * i * i;
    h.add(x);
    exact.add(x);
  }
  for (const double p : {10.0, 25.0, 50.0, 90.0, 99.0}) {
    EXPECT_NEAR(h.percentile(p), exact.percentile(p), exact.percentile(p) / 64) << p;
  }
}

TEST(LogHistogram, OutOfRangeSamplesLandInTheEndBuckets) {
  LogHistogram h;
  h.add(0.0);
  h.add(1e-9);
  h.add(1e15);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.percentile(0), 0.0);
  EXPECT_EQ(h.percentile(100), 1e15);
}

TEST(FormatBytes, HumanReadableUnits) {
  EXPECT_EQ(format_bytes(0), "0 B");
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1024), "1.00 KiB");
  EXPECT_EQ(format_bytes(1536), "1.50 KiB");
  EXPECT_EQ(format_bytes(1024.0 * 1024), "1.00 MiB");
  EXPECT_EQ(format_bytes(3.5 * 1024 * 1024 * 1024), "3.50 GiB");
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

}  // namespace
}  // namespace ici
