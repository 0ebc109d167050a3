#include <gtest/gtest.h>

#include "util/stats.h"

namespace helios::util {
namespace {

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(Stats, MeanAndStddev) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

TEST(Stats, PercentileUnsortedInput) {
  const std::vector<double> xs{40.0, 10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
}

TEST(Stats, PercentileRejectsBadInput) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  const std::vector<double> xs{1.0};
  EXPECT_THROW(percentile(xs, -1), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 101), std::invalid_argument);
}

}  // namespace
}  // namespace helios::util
