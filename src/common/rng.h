// Deterministic random number generation.
//
// Every stochastic component of the library (workload generation, EA
// operators, tabu tie-breaking) takes an explicit Rng so experiments are
// reproducible from a single printed seed.  The engine is xoshiro256**
// seeded through SplitMix64 — fast, high quality, and independent of the
// standard library's unspecified distributions (we implement our own so
// results are identical across platforms).
#pragma once

#include <cstdint>
#include <limits>
#include <utility>

#include "common/expect.h"

namespace iaas {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // SplitMix64 expansion of the user seed into the 256-bit state.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  // xoshiro256** next().
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [lo, hi] inclusive.  The span and the offset are
  // unsigned, so a span past 2^63 - 1 wraps instead of overflowing; over
  // any narrower span the draws are the ones signed arithmetic gave.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    IAAS_EXPECT(lo <= hi, "uniform_int requires lo <= hi");
    const std::uint64_t range =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (range == 0) {  // full 64-bit range
      return static_cast<std::int64_t>(next_u64());
    }
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                     below(range));
  }

  // Uniform index in [0, n), for any n > 0 a size_t holds; the draws are
  // uniform_int(0, n - 1)'s wherever that is defined.
  std::size_t uniform_index(std::size_t n) {
    IAAS_EXPECT(n > 0, "uniform_index requires n > 0");
    return static_cast<std::size_t>(below(n));
  }

  // Uniform real in [lo, hi).
  double uniform_real(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  // Bernoulli trial with success probability p.
  bool bernoulli(double p) { return next_double() < p; }

  // Counter-derived child stream i, WITHOUT consuming the parent state:
  // the same (state, i) pair always yields the same child, so a serial
  // driver can assign stream i to parallel task i and the run is
  // bit-identical for any thread count.  Distinct counters against the
  // same parent state give statistically independent streams (SplitMix64
  // mixing of the counter, folded into two parent state words, then the
  // seeding expansion).
  [[nodiscard]] Rng child_stream(std::uint64_t i) const {
    std::uint64_t z = i + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return Rng(state_[0] ^ rotl(state_[2], 29) ^ z);
  }

  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      const std::size_t j = uniform_index(i);
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

 private:
  // Uniform in [0, range) for range > 0, debiased via rejection: raw
  // draws at or past limit = max - max % range, the largest multiple of
  // range, are redrawn.  max % range < range puts limit above
  // max - range, so only a draw among the top `range` values can be
  // rejected, and only such a draw pays the division for limit: an
  // accepted draw costs the one division of its remainder, and every
  // draw is the one the two-division sampler gave.
  std::uint64_t below(std::uint64_t range) {
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t v = next_u64();
    if (v > kMax - range) {
      const std::uint64_t limit = kMax - kMax % range;
      while (v >= limit) {
        v = next_u64();
      }
    }
    return v % range;
  }

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

}  // namespace iaas
