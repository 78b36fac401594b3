// Das-Dennis reference points and NSGA-III normalisation machinery.
#include "ea/reference_points.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace iaas {
namespace {

std::size_t choose2(std::size_t n) { return n * (n - 1) / 2; }

class DasDennisCount : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DasDennisCount, CountIsBinomial) {
  const std::size_t d = GetParam();
  const auto points = das_dennis_points(d);
  // C(d + M - 1, M - 1) with M = 3 -> C(d+2, 2).
  EXPECT_EQ(points.size(), choose2(d + 2));
}

INSTANTIATE_TEST_SUITE_P(Divisions, DasDennisCount,
                         ::testing::Values(1u, 2u, 4u, 8u, 12u, 16u));

TEST(DasDennis, PointsOnSimplex) {
  for (const ObjArray& p : das_dennis_points(12)) {
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(DasDennis, ContainsCornersAndIsUnique) {
  const auto points = das_dennis_points(4);
  auto contains = [&](const ObjArray& q) {
    for (const ObjArray& p : points) {
      if (std::abs(p[0] - q[0]) < 1e-12 && std::abs(p[1] - q[1]) < 1e-12 &&
          std::abs(p[2] - q[2]) < 1e-12) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(contains({1.0, 0.0, 0.0}));
  EXPECT_TRUE(contains({0.0, 1.0, 0.0}));
  EXPECT_TRUE(contains({0.0, 0.0, 1.0}));
  EXPECT_TRUE(contains({0.5, 0.25, 0.25}));
  // Uniqueness.
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = i + 1; j < points.size(); ++j) {
      const bool same = std::abs(points[i][0] - points[j][0]) < 1e-12 &&
                        std::abs(points[i][1] - points[j][1]) < 1e-12 &&
                        std::abs(points[i][2] - points[j][2]) < 1e-12;
      EXPECT_FALSE(same);
    }
  }
}

double distance(const ObjArray& p, const ObjArray& dir) {
  return perpendicular_distance(p, dir, squared_norm(dir));
}

TEST(PerpendicularDistance, PointOnRayIsZero) {
  const ObjArray dir = {1.0, 1.0, 1.0};
  EXPECT_NEAR(distance({2.0, 2.0, 2.0}, dir), 0.0, 1e-12);
}

TEST(PerpendicularDistance, KnownValue) {
  // Distance from (1,0,0) to the ray along (0,1,0) is 1.
  EXPECT_NEAR(distance({1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}), 1.0, 1e-12);
}

TEST(PerpendicularDistance, ScaleInvariantInDirection) {
  const ObjArray p = {1.0, 2.0, 3.0};
  const double d1 = distance(p, {1.0, 1.0, 0.0});
  const double d2 = distance(p, {10.0, 10.0, 0.0});
  EXPECT_NEAR(d1, d2, 1e-12);
}

TEST(PerpendicularDistance, ZeroDirectionIsInfinitelyFar) {
  EXPECT_EQ(distance({1.0, 2.0, 3.0}, {0.0, 0.0, 0.0}),
            std::numeric_limits<double>::infinity());
}

Individual ind(double a, double b, double c) {
  Individual i;
  i.objectives = {a, b, c};
  return i;
}

TEST(Normalizer, IdealIsComponentwiseMin) {
  Population pop = {ind(1, 5, 9), ind(2, 4, 8), ind(3, 3, 7)};
  Normalizer norm;
  norm.fit(pop, std::vector<std::size_t>{0, 1, 2});
  EXPECT_DOUBLE_EQ(norm.ideal()[0], 1.0);
  EXPECT_DOUBLE_EQ(norm.ideal()[1], 3.0);
  EXPECT_DOUBLE_EQ(norm.ideal()[2], 7.0);
}

TEST(Normalizer, AxisAlignedFrontNormalisesToUnit) {
  // Extremes exactly on translated axes: intercepts = extreme values.
  Population pop = {ind(10, 0, 0), ind(0, 20, 0), ind(0, 0, 40)};
  Normalizer norm;
  norm.fit(pop, std::vector<std::size_t>{0, 1, 2});
  EXPECT_NEAR(norm.intercepts()[0], 10.0, 1e-9);
  EXPECT_NEAR(norm.intercepts()[1], 20.0, 1e-9);
  EXPECT_NEAR(norm.intercepts()[2], 40.0, 1e-9);
  const ObjArray n = norm.normalize({10.0, 0.0, 0.0});
  EXPECT_NEAR(n[0], 1.0, 1e-9);
  EXPECT_NEAR(n[1], 0.0, 1e-9);
  EXPECT_NEAR(n[2], 0.0, 1e-9);
}

TEST(Normalizer, DegenerateFrontFallsBackToMaxSpread) {
  // All members identical: singular extremes; fallback must not produce
  // zero/NaN intercepts.
  Population pop = {ind(5, 5, 5), ind(5, 5, 5)};
  Normalizer norm;
  norm.fit(pop, std::vector<std::size_t>{0, 1});
  for (double i : norm.intercepts()) {
    EXPECT_TRUE(std::isfinite(i));
    EXPECT_GT(i, 0.0);
  }
  const ObjArray n = norm.normalize({5.0, 5.0, 5.0});
  for (double v : n) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(Normalizer, MembersSubsetOnly) {
  // Statistics must come from the indexed members, not the whole vector.
  Population pop = {ind(100, 100, 100), ind(1, 2, 3), ind(4, 5, 6)};
  Normalizer norm;
  norm.fit(pop, std::vector<std::size_t>{1, 2});
  EXPECT_DOUBLE_EQ(norm.ideal()[0], 1.0);
  EXPECT_DOUBLE_EQ(norm.ideal()[1], 2.0);
  EXPECT_DOUBLE_EQ(norm.ideal()[2], 3.0);
}

}  // namespace
}  // namespace iaas
