#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

namespace iaas {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  const std::uint64_t first = a.next_u64();
  a.next_u64();
  a.reseed(7);
  EXPECT_EQ(a.next_u64(), first);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.uniform_int(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.uniform_int(4, 4), 4);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(13);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_int(0, 7))];
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);  // each bucket near 1000
    EXPECT_LT(c, 1200);
  }
}

TEST(Rng, UniformIntWideRanges) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  // The full 64-bit range takes one raw draw as it is.
  Rng rng(19);
  Rng raw(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform_int(kMin, kMax),
              static_cast<std::int64_t>(raw.next_u64()));
  }
  // Spans past 2^63 - 1 stay within bounds and reach both halves.
  const std::pair<std::int64_t, std::int64_t> spans[] = {
      {kMin, 0}, {-1, kMax}, {kMin + 1, kMax}, {kMin, kMax - 1}};
  for (const auto& [lo, hi] : spans) {
    const std::uint64_t half =
        (static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo)) / 2;
    int lower_half = 0;
    for (int i = 0; i < 1000; ++i) {
      const std::int64_t v = rng.uniform_int(lo, hi);
      ASSERT_GE(v, lo);
      ASSERT_LE(v, hi);
      const std::uint64_t offset =
          static_cast<std::uint64_t>(v) - static_cast<std::uint64_t>(lo);
      lower_half += offset <= half ? 1 : 0;
    }
    EXPECT_GT(lower_half, 400) << lo << " " << hi;
    EXPECT_LT(lower_half, 600) << lo << " " << hi;
  }
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_index(13), 13u);
  }
}

TEST(Rng, UniformIndexDrawsAsUniformInt) {
  // Below 2^63 an index is uniform_int(0, n - 1), draw for draw.
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  Rng index(23);
  Rng integer(23);
  for (const std::uint64_t n :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{13},
        std::uint64_t{1} << 32, kTop / 3 * 2, kTop - 1}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_EQ(index.uniform_index(n),
                static_cast<std::uint64_t>(integer.uniform_int(
                    0, static_cast<std::int64_t>(n - 1))))
          << n;
    }
  }
}

TEST(Rng, UniformIndexPast2To63) {
  // n = 2^63 and 2^63 + 5 both keep the first raw draw below n as it is
  // (every larger draw lies past the largest multiple of n), and reach
  // both halves of [0, n).
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  for (const std::uint64_t n : {kTop, kTop + 5}) {
    Rng rng(29);
    Rng raw(29);
    int lower_half = 0;
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t v = rng.uniform_index(n);
      std::uint64_t expected = raw.next_u64();
      while (expected >= n) {
        expected = raw.next_u64();
      }
      ASSERT_EQ(v, expected) << n;
      lower_half += v < n / 2 ? 1 : 0;
    }
    EXPECT_GT(lower_half, 400) << n;
    EXPECT_LT(lower_half, 600) << n;
  }
}

// uniform_index against the two-division rejection sampler it replaced
// (the limit computed before every draw), raw draw for raw draw: the same
// values, and the same number of raw draws consumed.  2^63 and 2^63 + 5
// reject about half their raw draws; 2^64 - 1 computes its limit on almost
// every draw and rejects only the largest.
TEST(Rng, UniformIndexDrawsAsTheTwoDivisionSampler) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  const auto two_division = [](Rng& raw, std::uint64_t range) {
    const std::uint64_t limit = kMax - kMax % range;
    std::uint64_t v = raw.next_u64();
    while (v >= limit) {
      v = raw.next_u64();
    }
    return v % range;
  };
  for (const std::uint64_t range :
       {std::uint64_t{1}, std::uint64_t{3}, std::uint64_t{128},
        (std::uint64_t{1} << 32) + 1, kTop, kTop + 5, kMax}) {
    Rng rng(31);
    Rng raw(31);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(rng.uniform_index(range), two_division(raw, range))
          << "range " << range << " draw " << i;
    }
    EXPECT_EQ(rng.next_u64(), raw.next_u64()) << "range " << range;
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), shuffled.begin()));
  EXPECT_NE(v, shuffled);  // astronomically unlikely to be identity
}

TEST(Rng, ChildStreamDoesNotConsumeParent) {
  Rng untouched(47);
  Rng parent(47);
  (void)parent.child_stream(0);
  (void)parent.child_stream(123456789);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(parent.next_u64(), untouched.next_u64());
  }
}

TEST(Rng, ChildStreamDeterministicPerCounter) {
  const Rng parent(53);
  Rng a = parent.child_stream(7);
  Rng b = parent.child_stream(7);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, ChildStreamsDistinctAcrossCounters) {
  const Rng parent(59);
  Rng a = parent.child_stream(0);
  Rng b = parent.child_stream(1);
  Rng c = parent.child_stream(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t xa = a.next_u64();
    const std::uint64_t xb = b.next_u64();
    const std::uint64_t xc = c.next_u64();
    equal += xa == xb ? 1 : 0;
    equal += xa == xc ? 1 : 0;
    equal += xb == xc ? 1 : 0;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, ChildStreamsDifferWithParentState) {
  // Advancing the parent changes what every counter derives — streams do
  // not repeat across generations.
  Rng parent(61);
  Rng before = parent.child_stream(3);
  parent.next_u64();
  Rng after = parent.child_stream(3);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += before.next_u64() == after.next_u64() ? 1 : 0;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformRealWithinBounds) {
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform_real(2.5, 7.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 7.5);
  }
}

// Mean of uniform draws should converge to the midpoint.
TEST(Rng, UniformRealMean) {
  Rng rng(43);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.uniform_real(0.0, 10.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

}  // namespace
}  // namespace iaas
