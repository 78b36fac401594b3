// Matrix, statistics, table/CSV writers, stopwatch/deadline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/csv.h"
#include "common/matrix.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "common/table.h"

namespace iaas {
namespace {

TEST(Matrix, DefaultIsEmpty) {
  Matrix<double> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(Matrix, FillConstructorAndIndexing) {
  Matrix<int> m(3, 4, 7);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(m(r, c), 7);
    }
  }
  m(1, 2) = -3;
  EXPECT_EQ(m(1, 2), -3);
}

TEST(Matrix, RowSpanIsContiguousView) {
  Matrix<int> m(2, 3, 0);
  auto row = m.row(1);
  row[0] = 5;
  row[2] = 9;
  EXPECT_EQ(m(1, 0), 5);
  EXPECT_EQ(m(1, 2), 9);
  EXPECT_EQ(m.row(0)[0], 0);
}

TEST(Matrix, FillResetsAll) {
  Matrix<double> m(2, 2, 1.0);
  m.fill(0.5);
  for (double v : m.flat()) {
    EXPECT_DOUBLE_EQ(v, 0.5);
  }
}

TEST(Matrix, Equality) {
  Matrix<int> a(2, 2, 1);
  Matrix<int> b(2, 2, 1);
  EXPECT_EQ(a, b);
  b(0, 0) = 2;
  EXPECT_NE(a, b);
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(v);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, StddevIsSampleStddev) {
  RunningStats s;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) {
    s.add(v);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(TextTable, FormatsAlignedColumns) {
  TextTable t({"algo", "time"});
  t.add_row({"RR", "1.5"});
  t.add_row({"NSGA-III+Tabu", "5.0"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| algo"), std::string::npos);
  EXPECT_NE(s.find("NSGA-III+Tabu"), std::string::npos);
  // Every data row has the same width as the rule lines.
  std::istringstream in(s);
  std::string line;
  std::size_t width = 0;
  while (std::getline(in, line)) {
    if (width == 0) {
      width = line.size();
    }
    EXPECT_EQ(line.size(), width);
  }
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(CsvWriter, WritesHeaderAndEscapes) {
  const std::string path = "/tmp/iaas_test_csv.csv";
  {
    CsvWriter csv(path, {"name", "value"});
    csv.add_row({"plain", "1"});
    csv.add_row({"with,comma", "has \"quote\""});
    EXPECT_TRUE(csv.ok());
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,value");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,1");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with,comma\",\"has \"\"quote\"\"\"");
  std::filesystem::remove(path);
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch sw;
  const double t0 = sw.elapsed_seconds();
  EXPECT_GE(t0, 0.0);
  // Burn a little CPU to let time advance.
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) {
    x = x + 1.0;
  }
  EXPECT_GE(sw.elapsed_seconds(), t0);
}

TEST(Deadline, UnlimitedNeverExpires) {
  const Deadline d;
  EXPECT_FALSE(d.expired());
}

TEST(Deadline, ExpiresInPastImmediately) {
  const Deadline d = Deadline::after_seconds(-1.0);
  EXPECT_TRUE(d.expired());
}

TEST(Deadline, FutureDeadlineNotExpired) {
  const Deadline d = Deadline::after_seconds(60.0);
  EXPECT_FALSE(d.expired());
}

TEST(Deadline, BudgetsPastTheClockRangeNeverExpire) {
  // Converting these to nanoseconds would overflow the clock's duration.
  for (const double seconds :
       {std::numeric_limits<double>::infinity(), 1e300, 9.3e9}) {
    const Deadline d = Deadline::after_seconds(seconds);
    EXPECT_FALSE(d.expired()) << seconds;
  }
  const Deadline year = Deadline::after_seconds(3.2e7);
  EXPECT_FALSE(year.expired());
  EXPECT_TRUE(Deadline::after_seconds(-1e300).expired());
  EXPECT_TRUE(
      Deadline::after_seconds(-std::numeric_limits<double>::infinity())
          .expired());
}

}  // namespace
}  // namespace iaas
