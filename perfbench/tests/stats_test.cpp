// Unit tests for perfbench/src/stats.hpp. Reference quartiles are the
// values Python's statistics.quantiles(data, n=4) returns for the same data.
#include "stats.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(TailPercentile, KeepsRequestedLevelWithTenBeyond) {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  const Tail p99 = tail_percentile(values, 0.99);
  EXPECT_DOUBLE_EQ(p99.level, 0.99);
  EXPECT_DOUBLE_EQ(p99.value, 990.0);
  EXPECT_EQ(samples_beyond(values.size(), p99.level), 10u);
  EXPECT_EQ(p99.samples, 1000u);
}

TEST(TailPercentile, LowersLevelWhenTooFewSamplesBeyond) {
  std::vector<double> values;
  for (int i = 1; i <= 200; ++i) values.push_back(i);
  // p99 of 200 samples leaves only 2 beyond; the rule falls back to the
  // highest level with ten beyond: 190/200 = p95.
  const Tail tail = tail_percentile(values, 0.99);
  EXPECT_DOUBLE_EQ(tail.level, 0.95);
  EXPECT_DOUBLE_EQ(tail.value, 190.0);
  EXPECT_GE(samples_beyond(values.size(), tail.level), 10u);
}

TEST(TailPercentile, TinySamplesReportTheMedian) {
  const Tail tail = tail_percentile({5, 1, 3}, 0.99);
  EXPECT_DOUBLE_EQ(tail.level, 0.5);
  EXPECT_DOUBLE_EQ(tail.value, 3.0);
  EXPECT_EQ(tail_percentile({}, 0.5).samples, 0u);
}

TEST(TailPercentile, MedianNeedsNoFallback) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  const Tail p50 = tail_percentile(values, 0.5);
  EXPECT_DOUBLE_EQ(p50.level, 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 50.0);
}

TEST(Quartiles, MatchPythonExclusiveMethod) {
  struct Case {
    std::vector<double> data;
    double q1, q2, q3;
  };
  const Case cases[] = {
      {{1, 2}, 0.75, 1.5, 2.25},
      {{1, 2, 3}, 1.0, 2.0, 3.0},
      {{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
      {{10, 20, 30, 40, 50}, 15.0, 30.0, 45.0},
      {{0.5, 0.25, 0.125, 8.0}, 0.15625, 0.375, 6.125},
  };
  for (const auto& c : cases) {
    const Quartiles q = quartiles(c.data);
    EXPECT_DOUBLE_EQ(q.q1, c.q1);
    EXPECT_DOUBLE_EQ(q.q2, c.q2);
    EXPECT_DOUBLE_EQ(q.q3, c.q3);
  }
}

TEST(Quartiles, RelativeIqr) {
  const Quartiles q = quartiles({10, 20, 30, 40, 50});
  EXPECT_DOUBLE_EQ(q.relative_iqr(), (45.0 - 15.0) / 30.0);
}

TEST(SteadyTime, IsTheFastestSample) {
  EXPECT_DOUBLE_EQ(steady_time({1.4, 1.1, 1.7, 1.2}), 1.1);
  EXPECT_DOUBLE_EQ(steady_time({2.5}), 2.5);
  EXPECT_DOUBLE_EQ(steady_time({}), 0.0);
}

TEST(FailCounter, CountsEveryAttemptOnce) {
  FailCounter counter;
  EXPECT_DOUBLE_EQ(counter.ratio(), 0.0);
  counter.record(true);
  counter.record(false);
  counter.add(8, 1);
  EXPECT_EQ(counter.attempted(), 10u);
  EXPECT_EQ(counter.failed(), 2u);
  EXPECT_DOUBLE_EQ(counter.ratio(), 0.2);
}

TEST(FailCounter, FailuresNeverExceedAttempts) {
  FailCounter counter;
  counter.add(3, 7);
  EXPECT_EQ(counter.failed(), 3u);
  EXPECT_DOUBLE_EQ(counter.ratio(), 1.0);
}

}  // namespace
}  // namespace perfbench
