// SBX / polynomial-mutation variation operators on integer genes.
#include "ea/operators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

namespace iaas {
namespace {

std::vector<std::int32_t> constant_genes(std::size_t n, std::int32_t v) {
  return std::vector<std::int32_t>(n, v);
}

TEST(RandomizeGenes, WithinBounds) {
  Rng rng(1);
  std::vector<std::int32_t> genes(1000);
  randomize_genes(genes, 15, rng);
  for (std::int32_t g : genes) {
    EXPECT_GE(g, 0);
    EXPECT_LE(g, 15);
  }
  // All values reachable.
  for (std::int32_t v = 0; v <= 15; ++v) {
    EXPECT_NE(std::find(genes.begin(), genes.end(), v), genes.end());
  }
}

TEST(Sbx, ChildrenWithinBounds) {
  Rng rng(2);
  const auto pa = constant_genes(64, 0);
  const auto pb = constant_genes(64, 99);
  SbxParams params;
  params.rate = 1.0;
  for (int round = 0; round < 50; ++round) {
    std::vector<std::int32_t> ca;
    std::vector<std::int32_t> cb;
    sbx_crossover(pa, pb, ca, cb, 99, params, rng);
    for (std::size_t g = 0; g < 64; ++g) {
      EXPECT_GE(ca[g], 0);
      EXPECT_LE(ca[g], 99);
      EXPECT_GE(cb[g], 0);
      EXPECT_LE(cb[g], 99);
    }
  }
}

TEST(Sbx, ZeroRateCopiesParents) {
  Rng rng(3);
  const auto pa = constant_genes(16, 3);
  const auto pb = constant_genes(16, 7);
  SbxParams params;
  params.rate = 0.0;
  std::vector<std::int32_t> ca;
  std::vector<std::int32_t> cb;
  sbx_crossover(pa, pb, ca, cb, 10, params, rng);
  EXPECT_EQ(ca, pa);
  EXPECT_EQ(cb, pb);
}

TEST(Sbx, IdenticalParentsYieldIdenticalChildren) {
  Rng rng(4);
  const auto p = constant_genes(32, 5);
  SbxParams params;
  params.rate = 1.0;
  std::vector<std::int32_t> ca;
  std::vector<std::int32_t> cb;
  sbx_crossover(p, p, ca, cb, 10, params, rng);
  // SBX blends the two parent values; identical parents -> same value.
  EXPECT_EQ(ca, p);
  EXPECT_EQ(cb, p);
}

TEST(Sbx, MixesParentValues) {
  Rng rng(5);
  const auto pa = constant_genes(256, 10);
  const auto pb = constant_genes(256, 90);
  SbxParams params;
  params.rate = 1.0;
  std::vector<std::int32_t> ca;
  std::vector<std::int32_t> cb;
  sbx_crossover(pa, pb, ca, cb, 100, params, rng);
  // Some genes crossed (not all equal to either parent everywhere).
  bool any_changed = false;
  for (std::size_t g = 0; g < 256; ++g) {
    if (ca[g] != 10 || cb[g] != 90) {
      any_changed = true;
      break;
    }
  }
  EXPECT_TRUE(any_changed);
}

TEST(Sbx, DeterministicForSameSeed) {
  const auto pa = constant_genes(32, 2);
  const auto pb = constant_genes(32, 8);
  SbxParams params;
  params.rate = 1.0;
  std::vector<std::int32_t> ca1, cb1, ca2, cb2;
  Rng r1(77);
  sbx_crossover(pa, pb, ca1, cb1, 10, params, r1);
  Rng r2(77);
  sbx_crossover(pa, pb, ca2, cb2, 10, params, r2);
  EXPECT_EQ(ca1, ca2);
  EXPECT_EQ(cb1, cb2);
}

TEST(Pm, WithinBounds) {
  Rng rng(6);
  PmParams params;
  params.rate = 1.0;
  for (int round = 0; round < 20; ++round) {
    auto genes = constant_genes(64, 50);
    polynomial_mutation(genes, PmTable(99, params), rng);
    for (std::int32_t g : genes) {
      EXPECT_GE(g, 0);
      EXPECT_LE(g, 99);
    }
  }
}

TEST(Pm, ZeroRateIsNoop) {
  Rng rng(7);
  auto genes = constant_genes(32, 4);
  PmParams params;
  params.rate = 0.0;
  polynomial_mutation(genes, PmTable(10, params), rng);
  EXPECT_EQ(genes, constant_genes(32, 4));
}

TEST(Pm, FullRateAlwaysPerturbs) {
  // The integer adaptation nudges by at least one step, so rate-1.0
  // mutation must change every gene (domain > 1).
  Rng rng(8);
  auto genes = constant_genes(128, 25);
  PmParams params;
  params.rate = 1.0;
  polynomial_mutation(genes, PmTable(50, params), rng);
  for (std::int32_t g : genes) {
    EXPECT_NE(g, 25);
  }
}

TEST(Pm, ApproximatesConfiguredRate) {
  Rng rng(9);
  PmParams params;
  params.rate = 0.2;  // Table III
  int changed = 0;
  const int total = 20000;
  auto genes = constant_genes(total, 25);
  polynomial_mutation(genes, PmTable(50, params), rng);
  for (std::int32_t g : genes) {
    changed += g != 25 ? 1 : 0;
  }
  EXPECT_NEAR(changed / static_cast<double>(total), 0.2, 0.02);
}

TEST(Pm, SingleServerDomainIsNoop) {
  Rng rng(10);
  auto genes = constant_genes(8, 0);
  PmParams params;
  params.rate = 1.0;
  polynomial_mutation(genes, PmTable(0, params), rng);
  EXPECT_EQ(genes, constant_genes(8, 0));
}

TEST(Pm, BoundaryGenesStayInDomain) {
  Rng rng(11);
  PmParams params;
  params.rate = 1.0;
  auto genes = constant_genes(64, 0);
  polynomial_mutation(genes, PmTable(9, params), rng);
  for (std::int32_t g : genes) {
    EXPECT_GE(g, 0);
    EXPECT_LE(g, 9);
  }
  genes = constant_genes(64, 9);
  polynomial_mutation(genes, PmTable(9, params), rng);
  for (std::int32_t g : genes) {
    EXPECT_GE(g, 0);
    EXPECT_LE(g, 9);
  }
}

// SBX and PM exactly as first written — a pow per swapped gene in SBX,
// two per mutated gene in PM — kept as the reference the tabulated and
// short-cut operators are compared against.
std::int32_t reference_round_clamp(double value, std::int32_t max_gene) {
  return std::clamp(static_cast<std::int32_t>(std::lround(value)), 0,
                    max_gene);
}

// The children of one swapped gene with uniform u.
std::pair<std::int32_t, std::int32_t> reference_sbx_children(
    std::int32_t parent_a, std::int32_t parent_b, double u,
    std::int32_t max_gene) {
  const double eta = kSbxDistributionIndex;
  const double x1 = static_cast<double>(parent_a);
  const double x2 = static_cast<double>(parent_b);
  const double beta = u <= 0.5 ? std::pow(2.0 * u, 1.0 / (eta + 1.0))
                               : std::pow(1.0 / (2.0 * (1.0 - u)),
                                          1.0 / (eta + 1.0));
  return {reference_round_clamp(
              0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2), max_gene),
          reference_round_clamp(
              0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2), max_gene)};
}

void reference_sbx(const std::vector<std::int32_t>& parent_a,
                   const std::vector<std::int32_t>& parent_b,
                   std::vector<std::int32_t>& child_a,
                   std::vector<std::int32_t>& child_b, std::int32_t max_gene,
                   const SbxParams& params, Rng& rng) {
  child_a = parent_a;
  child_b = parent_b;
  if (!rng.bernoulli(params.rate)) {
    return;
  }
  for (std::size_t g = 0; g < parent_a.size(); ++g) {
    if (!rng.bernoulli(0.5)) {
      continue;
    }
    const double u = rng.next_double();
    std::tie(child_a[g], child_b[g]) =
        reference_sbx_children(parent_a[g], parent_b[g], u, max_gene);
  }
}

// The result of mutating `gene` with uniform u.
std::int32_t reference_pm_gene(std::int32_t gene, double u,
                               std::int32_t max_gene) {
  const double range = static_cast<double>(max_gene);
  const double eta = kPmDistributionIndex;
  const double x = static_cast<double>(gene);
  const double delta1 = x / range;
  const double delta2 = (range - x) / range;
  double deltaq;
  if (u <= 0.5) {
    const double val =
        2.0 * u + (1.0 - 2.0 * u) * std::pow(1.0 - delta1, eta + 1.0);
    deltaq = std::pow(val, 1.0 / (eta + 1.0)) - 1.0;
  } else {
    const double val = 2.0 * (1.0 - u) +
                       2.0 * (u - 0.5) * std::pow(1.0 - delta2, eta + 1.0);
    deltaq = 1.0 - std::pow(val, 1.0 / (eta + 1.0));
  }
  std::int32_t result = reference_round_clamp(x + deltaq * range, max_gene);
  if (result == gene) {
    result =
        reference_round_clamp(x + (deltaq >= 0.0 ? 1.0 : -1.0), max_gene);
  }
  return result;
}

void reference_pm(std::vector<std::int32_t>& genes, std::int32_t max_gene,
                  const PmParams& params, Rng& rng) {
  if (max_gene == 0) {
    return;
  }
  for (std::int32_t& gene : genes) {
    if (!rng.bernoulli(params.rate)) {
      continue;
    }
    gene = reference_pm_gene(gene, rng.next_double(), max_gene);
  }
}

TEST(Operators, MatchDirectFormulas) {
  for (std::int32_t max_gene : {1, 2, 9, 127, 799}) {
    Rng setup(static_cast<std::uint64_t>(max_gene));
    for (int round = 0; round < 42; ++round) {
      // Parents that agree on roughly half their genes (the SBX short
      // cut), including both domain bounds, and disagree elsewhere; their
      // lengths straddle one and two 64-draw blocks of the trial walk.
      const std::size_t genes[] = {63, 64, 65, 127, 128, 129, 200};
      std::vector<std::int32_t> pa(genes[round % 7]);
      std::vector<std::int32_t> pb(pa.size());
      randomize_genes(pa, max_gene, setup);
      randomize_genes(pb, max_gene, setup);
      for (std::size_t g = 0; g < pa.size(); ++g) {
        if (setup.bernoulli(0.5)) {
          pb[g] = pa[g];
        }
      }
      pa[0] = pb[0] = 0;
      pa[1] = pb[1] = max_gene;
      SbxParams sbx;
      sbx.rate = round % 4 == 0 ? 0.7 : 1.0;
      PmParams pm;
      pm.rate = round % 2 == 0 ? 0.2 : 1.0;
      const PmTable table(max_gene, pm);

      const std::uint64_t seed = setup.next_u64();
      Rng rng(seed);
      Rng reference_rng(seed);
      std::vector<std::int32_t> ca, cb, ra, rb;
      sbx_crossover(pa, pb, ca, cb, max_gene, sbx, rng);
      reference_sbx(pa, pb, ra, rb, max_gene, sbx, reference_rng);
      ASSERT_EQ(ca, ra) << "max_gene " << max_gene << ", round " << round;
      ASSERT_EQ(cb, rb) << "max_gene " << max_gene << ", round " << round;
      polynomial_mutation(ca, table, rng);
      reference_pm(ra, max_gene, pm, reference_rng);
      polynomial_mutation(cb, table, rng);
      reference_pm(rb, max_gene, pm, reference_rng);
      ASSERT_EQ(ca, ra) << "max_gene " << max_gene << ", round " << round;
      ASSERT_EQ(cb, rb) << "max_gene " << max_gene << ", round " << round;
      ASSERT_EQ(rng.next_u64(), reference_rng.next_u64());
    }
  }
}

TEST(Sbx, ChildrenMayAliasTheirParents) {
  Rng setup(12);
  SbxParams params;
  params.rate = 1.0;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::int32_t> pa(100 + static_cast<std::size_t>(round));
    std::vector<std::int32_t> pb(pa.size());
    randomize_genes(pa, 127, setup);
    randomize_genes(pb, 127, setup);
    for (std::size_t g = 0; g < pa.size(); ++g) {
      if (setup.bernoulli(0.6)) {
        pb[g] = pa[g];
      }
    }
    const std::uint64_t seed = setup.next_u64();
    Rng separate_rng(seed);
    std::vector<std::int32_t> ca, cb;
    sbx_crossover(pa, pb, ca, cb, 127, params, separate_rng);
    Rng aliased_rng(seed);
    sbx_crossover(pa, pb, pa, pb, 127, params, aliased_rng);
    EXPECT_EQ(pa, ca) << "round " << round;
    EXPECT_EQ(pb, cb) << "round " << round;
    EXPECT_EQ(aliased_rng.next_u64(), separate_rng.next_u64());
  }
}

TEST(TrialWalk, ThresholdIsTheNextDoubleCompare) {
  for (const double p : {0.0, 0x1p-53, 0.2, 0.5, 0.7, 1.0 - 0x1p-53, 1.0}) {
    const std::uint64_t threshold = bernoulli_threshold(p);
    ASSERT_LE(threshold, std::uint64_t{1} << 53);
    // Every top-53-bit value next to the threshold and at both ends.
    for (const std::uint64_t top :
         {std::uint64_t{0}, std::uint64_t{1}, threshold - 1, threshold,
          threshold + 1, (std::uint64_t{1} << 53) - 1}) {
      if (top >= std::uint64_t{1} << 53) {
        continue;
      }
      EXPECT_EQ(top < threshold, static_cast<double>(top) * 0x1.0p-53 < p)
          << "p " << p << ", top " << top;
    }
  }
}

// The successes and the uniform bits the sequential loop draws.
std::vector<std::pair<std::size_t, std::uint64_t>> sequential_hits(
    std::size_t trials, double p, Rng& rng) {
  std::vector<std::pair<std::size_t, std::uint64_t>> hits;
  for (std::size_t t = 0; t < trials; ++t) {
    if (rng.next_double() < p) {
      hits.emplace_back(t, std::bit_cast<std::uint64_t>(rng.next_double()));
    }
  }
  return hits;
}

TEST(TrialWalk, MatchesSequentialLoop) {
  for (const std::size_t trials :
       {0u, 1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u, 1000u}) {
    for (const double p :
         {0.0, 0x1p-53, 0.2, 0.5, 0.7, 1.0 - 0x1p-53, 1.0}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng sequential(seed);
        const auto expected = sequential_hits(trials, p, sequential);
        Rng blocked(seed);
        TrialWalk walk(trials, bernoulli_threshold(p));
        std::vector<std::pair<std::size_t, std::uint64_t>> found;
        std::vector<std::size_t> block_hits;
        TrialHit hits[TrialWalk::kMaxHits];
        while (!walk.done()) {
          const std::size_t count = walk.next_block(blocked, hits);
          ASSERT_LE(count, TrialWalk::kMaxHits);
          block_hits.push_back(count);
          for (std::size_t i = 0; i < count; ++i) {
            found.emplace_back(hits[i].trial,
                               std::bit_cast<std::uint64_t>(hits[i].u));
          }
        }
        ASSERT_EQ(found, expected)
            << "trials " << trials << ", p " << p << ", seed " << seed;
        ASSERT_EQ(blocked.next_u64(), sequential.next_u64())
            << "trials " << trials << ", p " << p << ", seed " << seed;
        if (p == 1.0 && trials == 63) {
          // Every trial succeeds.  63 draws hold 32 trials and 31
          // uniforms, so the last trial's uniform is carried; from then on
          // each block of the draws left (an even number) starts with a
          // carried uniform and ends on a trial, whose uniform it carries
          // again, until the last block draws only that uniform.
          EXPECT_EQ(block_hits,
                    (std::vector<std::size_t>{31, 16, 8, 4, 2, 1, 1}));
        }
        if (p == 1.0 && trials == 1) {
          EXPECT_EQ(block_hits, (std::vector<std::size_t>{0, 1}));
        }
      }
    }
  }
}

// The uniforms at both ends of [0, 1) and on both sides of 1/2, where the
// operators switch formulas: u = 0 puts an SBX child of parents with an
// odd sum exactly on a rounding tie, u = 1/2 gives PM a deltaq of 0.
constexpr double kEdgeUniforms[] = {0.0,        0x1p-53,       0.5 - 0x1p-54,
                                    0.5,        0.5 + 0x1p-53, 1.0 - 0x1p-53};

// Every gene of a domain up to 799; of a larger one, both ends and 500
// genes spread between them.
std::vector<std::int32_t> domain_genes(std::int32_t max_gene) {
  std::vector<std::int32_t> genes;
  if (max_gene <= 799) {
    for (std::int32_t g = 0; g <= max_gene; ++g) {
      genes.push_back(g);
    }
    return genes;
  }
  for (std::int32_t g = 0; g < 200; ++g) {
    genes.push_back(g);
    genes.push_back(max_gene - g);
  }
  for (std::int32_t k = 1; k <= 500; ++k) {
    genes.push_back(static_cast<std::int32_t>(
        static_cast<std::int64_t>(max_gene) * k / 501));
  }
  return genes;
}

TEST(Operators, SettleMatchesFormulasAtEdgeUniforms) {
  // Cases and fallbacks at the uniforms other than 0 and 1/2.
  std::size_t cases = 0;
  std::size_t fallbacks = 0;
  for (const std::int32_t max_gene :
       {1, 2, 9, 31, 127, 799, (1 << 24) - 1}) {
    const std::vector<std::int32_t> genes = domain_genes(max_gene);

    // SBX in batches of 64 swaps, the i-th writing children slot i.
    SbxSwap swaps[64];
    std::size_t batched = 0;
    std::int32_t child_a[64];
    std::int32_t child_b[64];
    const auto check_sbx = [&] {
      const std::size_t n = std::exchange(batched, 0);
      const std::uint64_t unsettled =
          sbx_settle({swaps, n}, max_gene, child_a, child_b);
      for (std::size_t i = 0; i < n; ++i) {
        const SbxSwap& swap = swaps[i];
        const bool fallback = ((unsettled >> i) & 1) != 0;
        if (fallback) {
          sbx_exact(swap, max_gene, child_a, child_b);
        }
        const auto expected =
            reference_sbx_children(swap.x1, swap.x2, swap.u, max_gene);
        ASSERT_EQ(child_a[i], expected.first)
            << swap.x1 << " " << swap.x2 << " u " << std::hexfloat << swap.u;
        ASSERT_EQ(child_b[i], expected.second)
            << swap.x1 << " " << swap.x2 << " u " << std::hexfloat << swap.u;
        if (swap.u == 0.0 && (swap.x1 + swap.x2) % 2 != 0) {
          ASSERT_TRUE(fallback) << "midpoint tie " << swap.x1 << " "
                                << swap.x2;
        }
        if (swap.u != 0.0 && swap.u != 0.5) {
          ++cases;
          fallbacks += fallback ? 1 : 0;
        }
      }
    };
    const auto add_sbx = [&](std::int32_t x1, std::int32_t x2) {
      if (x1 == x2 || x2 < 0 || x2 > max_gene) {
        return;
      }
      for (const double u : kEdgeUniforms) {
        swaps[batched] = {batched, x1, x2, u};
        if (++batched == 64) {
          ASSERT_NO_FATAL_FAILURE(check_sbx());
        }
      }
    };
    // Every pair of distinct genes of the small domains; otherwise each
    // gene with its neighbours, its mirror and both ends.
    for (const std::int32_t x1 : genes) {
      if (max_gene <= 799) {
        for (std::int32_t x2 = 0; x2 <= max_gene; ++x2) {
          ASSERT_NO_FATAL_FAILURE(add_sbx(x1, x2));
        }
      } else {
        for (const std::int32_t x2 :
             {0, 1, x1 - 1, x1 + 1, max_gene - x1, max_gene - 1, max_gene}) {
          ASSERT_NO_FATAL_FAILURE(add_sbx(x1, x2));
        }
      }
    }
    ASSERT_NO_FATAL_FAILURE(check_sbx());

    // PM on every gene, with the terms PmTable tabulates for it.
    const double range = static_cast<double>(max_gene);
    PmDraw draws[64];
    std::int32_t mutated[64];
    const auto check_pm = [&] {
      const std::size_t n = std::exchange(batched, 0);
      const std::uint64_t unsettled =
          pm_settle({draws, n}, max_gene, mutated);
      for (std::size_t i = 0; i < n; ++i) {
        const PmDraw& draw = draws[i];
        const bool fallback = ((unsettled >> i) & 1) != 0;
        if (fallback) {
          pm_exact(draw, max_gene, mutated);
        }
        ASSERT_EQ(mutated[i], reference_pm_gene(draw.x, draw.u, max_gene))
            << "gene " << draw.x << " of " << max_gene << " u "
            << std::hexfloat << draw.u;
        if (draw.u == 0.5) {
          ASSERT_TRUE(fallback) << "deltaq 0 at gene " << draw.x;
        }
        if (draw.u != 0.0 && draw.u != 0.5) {
          ++cases;
          fallbacks += fallback ? 1 : 0;
        }
      }
    };
    for (const std::int32_t x : genes) {
      const double lower =
          std::pow(1.0 - static_cast<double>(x) / range, 16.0);
      const double upper =
          std::pow(1.0 - (range - static_cast<double>(x)) / range, 16.0);
      for (const double u : kEdgeUniforms) {
        draws[batched] = {batched, x, u, u > 0.5 ? upper : lower};
        if (++batched == 64) {
          ASSERT_NO_FATAL_FAILURE(check_pm());
        }
      }
    }
    ASSERT_NO_FATAL_FAILURE(check_pm());
  }
  // The fallback is for the cases the margin cannot decide, not the rule.
  EXPECT_LT(fallbacks * 100, cases) << fallbacks << " of " << cases;
}

TEST(Operators, RoundHalfAwayMatchesLround) {
  std::vector<double> values = {0.0, -0.0, 0.5, -0.5, 1.5, -1.5,
                                std::nextafter(0.5, 0.0),
                                std::nextafter(-0.5, 0.0),
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                1e-300, -1e-300};
  // +-k.5 and its neighbours one ulp either side, across the gene
  // magnitudes the operators produce and out to 2^52, past which every
  // double is an integer.
  for (int exponent = 0; exponent <= 52; ++exponent) {
    for (const double k : {std::ldexp(1.0, exponent) - 1.0,
                           std::ldexp(1.0, exponent),
                           std::ldexp(1.0, exponent) + 1.0}) {
      for (const double sign : {1.0, -1.0}) {
        const double half = sign * (k + 0.5);
        values.push_back(half);
        values.push_back(std::nextafter(half, 0.0));
        values.push_back(std::nextafter(half, sign * 1e300));
        values.push_back(sign * k);
      }
    }
  }
  // The operators' range bounds: PM lands in [-max_gene, 2 max_gene];
  // SBX, for eta >= 1 and genes below 2^24, within +-2^50; the int32
  // gene type ends at 2^31.
  for (const double bound :
       {799.0, 1598.0, 2147483647.0, 2147483648.0, 4294967296.0,
        std::ldexp(1.0, 50), std::ldexp(1.0, 53), std::ldexp(1.0, 62)}) {
    for (const double v : {bound, -bound, bound - 0.5, -(bound - 0.5),
                           std::nextafter(bound, 0.0),
                           std::nextafter(-bound, 0.0)}) {
      values.push_back(v);
    }
  }
  for (const double v : values) {
    EXPECT_EQ(round_half_away(v), std::lround(v)) << std::hexfloat << v;
  }
}

}  // namespace
}  // namespace iaas
