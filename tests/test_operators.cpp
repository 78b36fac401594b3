// SBX / polynomial-mutation variation operators on integer genes.
#include "ea/operators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
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
  const double eta = params.distribution_index;
  for (std::size_t g = 0; g < parent_a.size(); ++g) {
    if (!rng.bernoulli(params.per_gene_swap)) {
      continue;
    }
    const double x1 = static_cast<double>(parent_a[g]);
    const double x2 = static_cast<double>(parent_b[g]);
    const double u = rng.next_double();
    const double beta = u <= 0.5
                            ? std::pow(2.0 * u, 1.0 / (eta + 1.0))
                            : std::pow(1.0 / (2.0 * (1.0 - u)),
                                       1.0 / (eta + 1.0));
    child_a[g] = reference_round_clamp(
        0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2), max_gene);
    child_b[g] = reference_round_clamp(
        0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2), max_gene);
  }
}

void reference_pm(std::vector<std::int32_t>& genes, std::int32_t max_gene,
                  const PmParams& params, Rng& rng) {
  if (max_gene == 0) {
    return;
  }
  const double range = static_cast<double>(max_gene);
  const double eta = params.distribution_index;
  for (std::int32_t& gene : genes) {
    if (!rng.bernoulli(params.rate)) {
      continue;
    }
    const double x = static_cast<double>(gene);
    const double delta1 = x / range;
    const double delta2 = (range - x) / range;
    const double u = rng.next_double();
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
      result = reference_round_clamp(x + (deltaq >= 0.0 ? 1.0 : -1.0),
                                     max_gene);
    }
    gene = result;
  }
}

TEST(Operators, MatchDirectFormulas) {
  for (std::int32_t max_gene : {1, 2, 9, 127, 799}) {
    Rng setup(static_cast<std::uint64_t>(max_gene));
    for (int round = 0; round < 40; ++round) {
      // Parents that agree on roughly half their genes (the SBX short
      // cut), including both domain bounds, and disagree elsewhere.
      std::vector<std::int32_t> pa(200);
      std::vector<std::int32_t> pb(200);
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

}  // namespace
}  // namespace iaas
