#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>

#include "common/json.h"
#include "common/stats.h"
#include "metrics/registry.h"
#include "obs/bench_report.h"
#include "obs/trace.h"

namespace ici::obs {
namespace {

// ---------------------------------------------------------------- TraceSink

TEST(TraceSink, RecordsWallAndSimIndependently) {
  TraceSink sink;
  sink.record_wall("verify/slice", 100.0);
  sink.record_wall("verify/slice", 300.0);
  sink.record_sim("bootstrap/fetch", 5000.0);

  const auto aggs = sink.aggregates();
  ASSERT_EQ(aggs.size(), 2u);
  // Sorted by label.
  EXPECT_EQ(aggs[0].label, "bootstrap/fetch");
  EXPECT_FALSE(aggs[0].has_wall);
  EXPECT_TRUE(aggs[0].has_sim);
  EXPECT_EQ(aggs[0].sim_us.count, 1u);
  EXPECT_EQ(aggs[0].sim_us.total, 5000.0);

  EXPECT_EQ(aggs[1].label, "verify/slice");
  EXPECT_TRUE(aggs[1].has_wall);
  EXPECT_FALSE(aggs[1].has_sim);
  EXPECT_EQ(aggs[1].wall_us.count, 2u);
  EXPECT_EQ(aggs[1].wall_us.total, 400.0);
}

TEST(TraceSink, AggregationMathMatchesDistribution) {
  TraceSink sink;
  for (int i = 1; i <= 100; ++i) sink.record_sim("x", static_cast<double>(i));
  const auto aggs = sink.aggregates();
  ASSERT_EQ(aggs.size(), 1u);
  const metrics::Distribution* d = sink.sim_distribution("x");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(aggs[0].sim_us.count, 100u);
  EXPECT_EQ(aggs[0].sim_us.total, 5050.0);
  EXPECT_EQ(aggs[0].sim_us.p50, d->p50());
  EXPECT_EQ(aggs[0].sim_us.p99, d->p99());
}

TEST(TraceSink, MillionWallSamplesKeepExactCountAndTotalAndBoundedPercentiles) {
  // Wall samples are not retained: count and total stay exact, p50/p99 come
  // from log buckets within 1/64 of the exact (sample-retaining) values.
  // Every sample is a multiple of 2^-10 below 2^20, so any summation order
  // gives the same exact total.
  TraceSink sink;
  Histogram exact;
  std::uint64_t total_units = 0;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  constexpr int kSamples = 1'000'000;
  for (int i = 0; i < kSamples; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = static_cast<double>(state >> 11) * 0x1.0p-53;
    const auto units = static_cast<std::uint64_t>(std::exp2(u * 30.0));  // 2^-10 .. 2^20 us
    total_units += units;
    const double us = static_cast<double>(units) * 0x1.0p-10;
    exact.add(us);
    sink.record_wall("pool", us);
  }
  const auto aggs = sink.aggregates();
  ASSERT_EQ(aggs.size(), 1u);
  EXPECT_EQ(aggs[0].wall_us.count, static_cast<std::uint64_t>(kSamples));
  EXPECT_EQ(aggs[0].wall_us.total, static_cast<double>(total_units) * 0x1.0p-10);
  constexpr double kBound = 1.0 / 64;
  EXPECT_NEAR(aggs[0].wall_us.p50, exact.p50(), exact.p50() * kBound);
  EXPECT_NEAR(aggs[0].wall_us.p99, exact.p99(), exact.p99() * kBound);
}

TEST(TraceSink, ResetDropsSamplesKeepsClock) {
  TraceSink sink;
  sink.set_sim_clock([] { return std::uint64_t{7}; });
  sink.record_wall("a", 1.0);
  sink.reset();
  EXPECT_TRUE(sink.aggregates().empty());
  EXPECT_TRUE(sink.has_sim_clock());
  EXPECT_EQ(sink.sim_now(), 7u);
}

TEST(TraceSink, ClockTokenProtectsNewerClock) {
  TraceSink sink;
  const std::uint64_t first = sink.set_sim_clock([] { return std::uint64_t{1}; });
  const std::uint64_t second = sink.set_sim_clock([] { return std::uint64_t{2}; });
  ASSERT_NE(first, second);
  // A stale owner (e.g. a destroyed network) must not yank the new clock.
  sink.clear_sim_clock(first);
  EXPECT_TRUE(sink.has_sim_clock());
  EXPECT_EQ(sink.sim_now(), 2u);
  sink.clear_sim_clock(second);
  EXPECT_FALSE(sink.has_sim_clock());
}

// --------------------------------------------------------------------- Span

TEST(Span, RecordsWallSampleOnDestruction) {
  TraceSink sink;
  { const Span span("work", sink); }
  const auto aggs = sink.aggregates();
  ASSERT_EQ(aggs.size(), 1u);
  EXPECT_EQ(aggs[0].label, "work");
  EXPECT_TRUE(aggs[0].has_wall);
  EXPECT_EQ(aggs[0].wall_us.count, 1u);
}

TEST(Span, NestedSpansPrefixParentPath) {
  TraceSink sink;
  {
    const Span outer("bootstrap", sink);
    EXPECT_EQ(sink.current_path(), "bootstrap");
    {
      const Span inner("fetch", sink);
      EXPECT_EQ(inner.label(), "bootstrap/fetch");
      EXPECT_EQ(sink.current_path(), "bootstrap/fetch");
      { const Span leaf("retry", sink); EXPECT_EQ(leaf.label(), "bootstrap/fetch/retry"); }
    }
    EXPECT_EQ(sink.current_path(), "bootstrap");
  }
  EXPECT_EQ(sink.current_path(), "");

  const auto aggs = sink.aggregates();
  ASSERT_EQ(aggs.size(), 3u);
  EXPECT_EQ(aggs[0].label, "bootstrap");
  EXPECT_EQ(aggs[1].label, "bootstrap/fetch");
  EXPECT_EQ(aggs[2].label, "bootstrap/fetch/retry");
}

TEST(Span, SimDeltaOnlyWhenSimAdvances) {
  TraceSink sink;
  std::uint64_t now = 1000;
  sink.set_sim_clock([&now] { return now; });

  { const Span still("still", sink); }          // sim did not move
  { const Span moving("moving", sink); now += 250; }

  const metrics::Distribution* still_sim = sink.sim_distribution("still");
  EXPECT_TRUE(still_sim == nullptr || still_sim->count() == 0);
  const metrics::Distribution* moving_sim = sink.sim_distribution("moving");
  ASSERT_NE(moving_sim, nullptr);
  ASSERT_EQ(moving_sim->count(), 1u);
  EXPECT_EQ(moving_sim->mean(), 250.0);
}

// --------------------------------------------------------------- JSON layer

TEST(JsonWriter, WritesNestedDocument) {
  JsonWriter w;
  w.begin_object()
      .member("name", "bench")
      .member("n", std::int64_t{-3})
      .member("pi", 3.5)
      .member("on", true)
      .member_null("none")
      .key("list")
      .begin_array()
      .value(1)
      .value("two")
      .end_array()
      .end_object();
  EXPECT_EQ(w.str(),
            R"({"name":"bench","n":-3,"pi":3.5,"on":true,"none":null,"list":[1,"two"]})");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  JsonWriter w;
  w.begin_array().value(std::numeric_limits<double>::quiet_NaN()).end_array();
  EXPECT_EQ(w.str(), "[null]");
}

TEST(JsonWriter, ThrowsOnUnbalancedDocument) {
  JsonWriter w;
  w.begin_object();
  EXPECT_THROW(w.str(), std::logic_error);
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter w;
  w.begin_array().value("a\"b\\c\n\t").end_array();
  EXPECT_EQ(w.str(), "[\"a\\\"b\\\\c\\n\\t\"]");
}

TEST(JsonValue, ParsesScalarsAndContainers) {
  const JsonValue doc = JsonValue::parse(
      R"({"s":"hi","n":-2.5,"t":true,"z":null,"arr":[1,2,3],"obj":{"k":"v"}})");
  EXPECT_EQ(doc.at("s").as_string(), "hi");
  EXPECT_EQ(doc.at("n").as_number(), -2.5);
  EXPECT_TRUE(doc.at("t").as_bool());
  EXPECT_TRUE(doc.at("z").is_null());
  EXPECT_EQ(doc.at("arr").size(), 3u);
  EXPECT_EQ(doc.at("arr").at(1).as_number(), 2.0);
  EXPECT_EQ(doc.at("obj").at("k").as_string(), "v");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonValue, RoundTripsEscapes) {
  JsonWriter w;
  w.begin_array().value("tab\there \"quoted\" \\slash").end_array();
  const JsonValue doc = JsonValue::parse(w.str());
  EXPECT_EQ(doc.at(std::size_t{0}).as_string(), "tab\there \"quoted\" \\slash");
}

TEST(JsonValue, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1] trailing"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse(""), std::runtime_error);
}

// -------------------------------------------------------------- BenchReport

TEST(BenchReport, ToJsonRoundTrips) {
  TraceSink sink;
  sink.record_wall("verify/slice", 10.0);
  sink.record_sim("bootstrap/fetch", 700.0);

  metrics::Registry reg;
  reg.counter("blocks").inc(5);
  reg.distribution("lat").add(1.0);
  reg.distribution("lat").add(3.0);

  BenchReport report("unit", 99);
  report.set_smoke(true);
  report.set_config("nodes", 40);
  report.set_config("ratio", 0.25);
  report.set_config("mode", "coded");
  report.add_row("m=8").set("bytes", std::uint64_t{1024}).set("pct", 25.0).set("ok", true);
  report.capture_registry(reg, "ici.");
  report.capture_spans(sink);

  const JsonValue doc = JsonValue::parse(report.to_json());
  EXPECT_EQ(doc.at("schema").as_string(), "ici-bench-v1");
  EXPECT_EQ(doc.at("name").as_string(), "unit");
  EXPECT_EQ(doc.at("seed").as_number(), 99.0);
  EXPECT_TRUE(doc.at("smoke").as_bool());
  EXPECT_EQ(doc.at("config").at("nodes").as_number(), 40.0);
  EXPECT_EQ(doc.at("config").at("mode").as_string(), "coded");

  ASSERT_EQ(doc.at("rows").size(), 1u);
  const JsonValue& row = doc.at("rows").at(std::size_t{0});
  EXPECT_EQ(row.at("label").as_string(), "m=8");
  EXPECT_EQ(row.at("values").at("bytes").as_number(), 1024.0);
  EXPECT_TRUE(row.at("values").at("ok").as_bool());

  EXPECT_EQ(doc.at("counters").at("ici.blocks").as_number(), 5.0);
  const JsonValue& lat = doc.at("distributions").at("ici.lat");
  EXPECT_EQ(lat.at("count").as_number(), 2.0);
  EXPECT_EQ(lat.at("total").as_number(), 4.0);

  ASSERT_EQ(doc.at("spans").size(), 2u);
  const JsonValue& fetch = doc.at("spans").at(std::size_t{0});
  EXPECT_EQ(fetch.at("label").as_string(), "bootstrap/fetch");
  EXPECT_TRUE(fetch.at("wall_us").is_null());
  EXPECT_EQ(fetch.at("sim_us").at("count").as_number(), 1.0);
  EXPECT_EQ(fetch.at("sim_us").at("total").as_number(), 700.0);
  const JsonValue& slice = doc.at("spans").at(std::size_t{1});
  EXPECT_EQ(slice.at("label").as_string(), "verify/slice");
  EXPECT_TRUE(slice.at("sim_us").is_null());
  EXPECT_EQ(slice.at("wall_us").at("count").as_number(), 1.0);
}

TEST(BenchReport, RowSetReplacesExistingKey) {
  BenchReport report("unit", 1);
  auto& row = report.add_row("r");
  row.set("v", 1.0);
  row.set("v", 2.0);
  const JsonValue doc = JsonValue::parse(report.to_json());
  const JsonValue& values = doc.at("rows").at(std::size_t{0}).at("values");
  ASSERT_EQ(values.members().size(), 1u);
  EXPECT_EQ(values.at("v").as_number(), 2.0);
}

TEST(BenchReport, RejectsEmptyName) {
  EXPECT_THROW(BenchReport("", 0), std::invalid_argument);
}

TEST(BenchReport, WriteHonorsBenchDirAndFilename) {
  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(setenv("ICI_BENCH_DIR", dir.c_str(), 1), 0);
  BenchReport report("write_test", 3);
  const std::string path = report.write();
  unsetenv("ICI_BENCH_DIR");

  EXPECT_NE(path.find("BENCH_write_test.json"), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const JsonValue doc = JsonValue::parse(text);
  EXPECT_EQ(doc.at("name").as_string(), "write_test");
  EXPECT_EQ(doc.at("seed").as_number(), 3.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ici::obs
