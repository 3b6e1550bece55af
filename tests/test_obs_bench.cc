#include "obs/bench.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "util/json.h"

namespace wmesh::obs {
namespace {

// The slow stage sleeps 400x longer than the fast one, so scheduler delay
// on a loaded host cannot swap their medians.
constexpr std::chrono::microseconds kFastSleep{50};
constexpr std::chrono::microseconds kSlowSleep{20000};

std::vector<BenchStage> two_stages() {
  return {
      {"fast", [] { std::this_thread::sleep_for(kFastSleep); }},
      {"slow", [] { std::this_thread::sleep_for(kSlowSleep); }},
  };
}

TEST(BenchQuantile, InterpolatesOverSortedRuns) {
  const std::vector<double> runs = {40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(bench_quantile(runs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(bench_quantile(runs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(bench_quantile(runs, 0.5), 25.0);  // midway 20..30
  EXPECT_DOUBLE_EQ(bench_quantile({7.0}, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(bench_quantile({}, 0.5), 0.0);
}

TEST(BenchSuite, TimesEveryStageRepeatTimes) {
  const BenchResult r = run_bench_suite("unit", two_stages(), 3, 2);
  EXPECT_EQ(r.suite, "unit");
  EXPECT_EQ(r.repeat, 3);
  EXPECT_EQ(r.threads, 2u);
  ASSERT_EQ(r.stages.size(), 2u);
  for (const auto& st : r.stages) {
    ASSERT_EQ(st.runs_us.size(), 3u);
    for (double run : st.runs_us) EXPECT_GT(run, 0.0);
    EXPECT_GE(st.p90_us, st.median_us);
    EXPECT_GE(st.median_us, st.p10_us);
  }
  // Registration order is preserved, and the slower stage measures slower.
  EXPECT_EQ(r.stages[0].name, "fast");
  EXPECT_EQ(r.stages[1].name, "slow");
  EXPECT_LT(r.stages[0].median_us, r.stages[1].median_us);
  // sleep_for never returns early.
  EXPECT_GE(r.stages[0].median_us, static_cast<double>(kFastSleep.count()));
  EXPECT_GE(r.stages[1].median_us, static_cast<double>(kSlowSleep.count()));
  EXPECT_NE(r.find("slow"), nullptr);
  EXPECT_EQ(r.find("absent"), nullptr);
}

TEST(BenchSuite, RethrowsStageFailures) {
  const std::vector<BenchStage> stages = {
      {"boom", [] { throw std::runtime_error("stage exploded"); }}};
  EXPECT_THROW(run_bench_suite("unit", stages, 2, 1), std::runtime_error);
}

TEST(BenchJson, RoundTripsThroughTheStrictParser) {
  const BenchResult r = run_bench_suite("unit", two_stages(), 2, 1);
  const std::string text = bench_to_json(r);

  // Valid JSON with the schema marker first.
  std::string err;
  const auto doc = json::parse(text, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  ASSERT_FALSE(doc->object.empty());
  EXPECT_EQ(doc->object[0].first, "schema");
  EXPECT_EQ(doc->find("schema")->string, kBenchSchema);
  ASSERT_NE(doc->find("build"), nullptr);
  EXPECT_TRUE(doc->find("build")->is_object());

  BenchResult back;
  ASSERT_TRUE(parse_bench_json(text, &back, &err)) << err;
  EXPECT_EQ(back.suite, r.suite);
  EXPECT_EQ(back.repeat, r.repeat);
  EXPECT_EQ(back.threads, r.threads);
  ASSERT_EQ(back.stages.size(), r.stages.size());
  for (std::size_t i = 0; i < r.stages.size(); ++i) {
    EXPECT_EQ(back.stages[i].name, r.stages[i].name);
    EXPECT_EQ(back.stages[i].runs_us.size(), r.stages[i].runs_us.size());
    EXPECT_NEAR(back.stages[i].median_us, r.stages[i].median_us, 0.01);
  }
}

TEST(BenchJson, RejectsWrongOrMissingSchema) {
  BenchResult out;
  std::string err;
  EXPECT_FALSE(parse_bench_json("not json", &out, &err));
  EXPECT_FALSE(parse_bench_json("{}", &out, &err));
  EXPECT_FALSE(parse_bench_json(
      R"({"schema": "wmesh.bench/999", "suite": "q", "repeat": 1,
          "threads": 1, "build": {}, "stages": []})",
      &out, &err));
  EXPECT_FALSE(parse_bench_json(
      R"({"schema": "wmesh.bench/1", "suite": "q", "repeat": 1,
          "threads": 1, "build": {},
          "stages": [{"name": "s", "runs_us": []}]})",
      &out, &err));  // empty runs
  EXPECT_FALSE(err.empty());
}

TEST(BenchRegression, FlagsSlowdownsBeyondTolerance) {
  BenchResult base, cur;
  base.stages = {{"a", {100.0}, 100.0, 100.0, 100.0},
                 {"b", {100.0}, 100.0, 100.0, 100.0}};
  cur.stages = {{"a", {110.0}, 110.0, 110.0, 110.0},
                {"b", {200.0}, 200.0, 200.0, 200.0}};

  const RegressionCheck c = check_bench_regression(base, cur, 25.0);
  ASSERT_EQ(c.rows.size(), 2u);
  EXPECT_FALSE(c.rows[0].regressed);  // +10% within tolerance
  EXPECT_TRUE(c.rows[1].regressed);   // +100%
  EXPECT_NEAR(c.rows[1].delta_pct, 100.0, 1e-9);
  EXPECT_FALSE(c.ok);
  const std::string text = c.render(25.0);
  EXPECT_NE(text.find("REGRESSED"), std::string::npos);
  EXPECT_NE(text.find("FAIL"), std::string::npos);

  // Generous tolerance: everything passes.
  EXPECT_TRUE(check_bench_regression(base, cur, 150.0).ok);
  // Speedups never fail.
  EXPECT_TRUE(check_bench_regression(cur, base, 5.0).ok);
}

TEST(BenchRegression, MissingStagesFailExtraStagesDoNot) {
  BenchResult base, cur;
  base.stages = {{"kept", {10.0}, 10.0, 10.0, 10.0},
                 {"gone", {10.0}, 10.0, 10.0, 10.0}};
  cur.stages = {{"kept", {10.0}, 10.0, 10.0, 10.0},
                {"new", {10.0}, 10.0, 10.0, 10.0}};
  const RegressionCheck c = check_bench_regression(base, cur, 25.0);
  ASSERT_EQ(c.missing.size(), 1u);
  EXPECT_EQ(c.missing[0], "gone");
  EXPECT_FALSE(c.ok);
  EXPECT_NE(c.render(25.0).find("gone"), std::string::npos);
}

// The acceptance demo: an artificially slowed run must trip the gate.  The
// stage needs a solidly non-zero baseline (timings are integer
// microseconds, and a zero baseline has no percentage to compare).
TEST(BenchRegression, ArtificialSleepIsDetectedAgainstACleanBaseline) {
  const std::vector<BenchStage> stages = {{"pace", [] {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }}};

  ::unsetenv("WMESH_BENCH_SLEEP_US");
  const BenchResult baseline = run_bench_suite("self", stages, 3, 1);

  // 5 ms of injected sleep dwarfs the microsecond-scale spin stage.
  ::setenv("WMESH_BENCH_SLEEP_US", "5000", 1);
  const BenchResult slowed = run_bench_suite("self", stages, 3, 1);
  ::unsetenv("WMESH_BENCH_SLEEP_US");

  EXPECT_GE(slowed.stages[0].median_us, 5000.0);
  const RegressionCheck c = check_bench_regression(baseline, slowed, 25.0);
  EXPECT_FALSE(c.ok);
  ASSERT_EQ(c.rows.size(), 1u);
  EXPECT_TRUE(c.rows[0].regressed);

  // And the un-slowed run passes against its own baseline.
  const BenchResult again = run_bench_suite("self", stages, 3, 1);
  EXPECT_TRUE(check_bench_regression(baseline, again, 10000.0).ok);
}

}  // namespace
}  // namespace wmesh::obs
