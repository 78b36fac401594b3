#include "ea/operators.h"

#include <algorithm>
#include <cmath>

#include "common/expect.h"

namespace iaas {
namespace {

std::int32_t round_clamp(double value, std::int32_t max_gene) {
  return static_cast<std::int32_t>(std::clamp<std::int64_t>(
      round_half_away(value), 0, max_gene));
}

// Deb's SBX spread factor for a uniform draw u; `inverse_exponent` is
// 1 / (eta + 1), computed once per crossover.
double sbx_beta(double u, double inverse_exponent) {
  if (u <= 0.5) {
    return std::pow(2.0 * u, inverse_exponent);
  }
  return std::pow(1.0 / (2.0 * (1.0 - u)), inverse_exponent);
}

}  // namespace

void sbx_crossover(const std::vector<std::int32_t>& parent_a,
                   const std::vector<std::int32_t>& parent_b,
                   std::vector<std::int32_t>& child_a,
                   std::vector<std::int32_t>& child_b, std::int32_t max_gene,
                   const SbxParams& params, Rng& rng) {
  IAAS_EXPECT(parent_a.size() == parent_b.size(),
              "SBX parents must have equal length");
  child_a = parent_a;
  child_b = parent_b;
  if (!rng.bernoulli(params.rate)) {
    return;  // no crossover this pair
  }
  const double inverse_exponent = 1.0 / (params.distribution_index + 1.0);
  for (std::size_t g = 0; g < parent_a.size(); ++g) {
    if (!rng.bernoulli(params.per_gene_swap)) {
      continue;
    }
    const double u = rng.next_double();
    if (parent_a[g] == parent_b[g]) {
      // Equal parents blend to x for any spread factor beta, up to a
      // rounding error below 2^-52 * (1 + beta) * x.  u < 1 - 2^-53
      // bounds beta by 2^(52 / (eta + 1)): about 9.5 at eta = 15, under
      // 2^26 for any eta >= 1.  So for every gene below 2^24 both
      // children round back to x, and beta (a pow) is not needed.
      child_a[g] = child_b[g] = std::clamp(parent_a[g], 0, max_gene);
      continue;
    }
    const double x1 = static_cast<double>(parent_a[g]);
    const double x2 = static_cast<double>(parent_b[g]);
    const double beta = sbx_beta(u, inverse_exponent);
    const double c1 = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2);
    const double c2 = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2);
    child_a[g] = round_clamp(c1, max_gene);
    child_b[g] = round_clamp(c2, max_gene);
  }
}

PmTable::PmTable(std::int32_t max_gene_in, const PmParams& params_in)
    : max_gene(max_gene_in), params(params_in) {
  IAAS_EXPECT(max_gene >= 0, "gene domain must be non-empty");
  if (max_gene == 0) {
    return;  // single server: polynomial_mutation never reads the table
  }
  const double range = static_cast<double>(max_gene);
  const double exponent = params.distribution_index + 1.0;
  lower.resize(static_cast<std::size_t>(max_gene) + 1);
  upper.resize(lower.size());
  for (std::int32_t gene = 0; gene <= max_gene; ++gene) {
    const double x = static_cast<double>(gene);
    const double delta1 = x / range;
    const double delta2 = (range - x) / range;
    lower[static_cast<std::size_t>(gene)] = std::pow(1.0 - delta1, exponent);
    upper[static_cast<std::size_t>(gene)] = std::pow(1.0 - delta2, exponent);
  }
}

void polynomial_mutation(std::vector<std::int32_t>& genes,
                         const PmTable& table, Rng& rng) {
  const std::int32_t max_gene = table.max_gene;
  if (max_gene == 0) {
    return;  // single server: nothing to mutate to
  }
  const double range = static_cast<double>(max_gene);
  const double inverse_exponent =
      1.0 / (table.params.distribution_index + 1.0);
  for (std::int32_t& gene : genes) {
    IAAS_EXPECT(gene >= 0 && gene <= max_gene,
                "polynomial mutation: gene outside [0, max_gene]");
    if (!rng.bernoulli(table.params.rate)) {
      continue;
    }
    const double x = static_cast<double>(gene);
    const auto index = static_cast<std::size_t>(gene);
    const double u = rng.next_double();
    double deltaq;
    if (u <= 0.5) {
      const double val = 2.0 * u + (1.0 - 2.0 * u) * table.lower[index];
      deltaq = std::pow(val, inverse_exponent) - 1.0;
    } else {
      const double val =
          2.0 * (1.0 - u) + 2.0 * (u - 0.5) * table.upper[index];
      deltaq = 1.0 - std::pow(val, inverse_exponent);
    }
    double mutated = x + deltaq * range;
    // Rounding can leave the gene unchanged on small perturbations; nudge
    // by one step in the mutation direction so PM always explores.
    std::int32_t result = round_clamp(mutated, max_gene);
    if (result == gene) {
      result = round_clamp(x + (deltaq >= 0.0 ? 1.0 : -1.0), max_gene);
    }
    gene = result;
  }
}

void randomize_genes(std::vector<std::int32_t>& genes, std::int32_t max_gene,
                     Rng& rng) {
  for (std::int32_t& gene : genes) {
    gene = static_cast<std::int32_t>(rng.uniform_int(0, max_gene));
  }
}

}  // namespace iaas
