// Variation operators.  The paper uses the SBX and PM standard operators
// on its integer server-ID genes; following common practice for integer
// decision variables, the real-coded operator runs on the continuous
// relaxation [0, max_gene] and the result is rounded and clamped.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace iaas {

struct SbxParams {
  double rate = 0.70;                // per-pair crossover probability
  double distribution_index = 15.0;  // eta_c
  double per_gene_swap = 0.5;        // standard per-variable participation
};

struct PmParams {
  double rate = 0.20;                // per-gene mutation probability
  double distribution_index = 15.0;  // eta_m
};

// std::lround's rounding (halves away from zero), inline and exact for
// every |x| < 2^63: the truncation is exact, so is x minus it (the
// fraction), and the fraction is compared with 1/2 exactly.  SBX and PM
// round every child gene through it.
inline std::int64_t round_half_away(double x) {
  const auto whole = static_cast<std::int64_t>(x);
  const double fraction = x - static_cast<double>(whole);
  return whole + (fraction >= 0.5 ? 1 : 0) - (fraction <= -0.5 ? 1 : 0);
}

// Simulated binary crossover on integer genes; children overwrite the
// provided buffers.  Parents may alias children.
void sbx_crossover(const std::vector<std::int32_t>& parent_a,
                   const std::vector<std::int32_t>& parent_b,
                   std::vector<std::int32_t>& child_a,
                   std::vector<std::int32_t>& child_b, std::int32_t max_gene,
                   const SbxParams& params, Rng& rng);

// Polynomial mutation over the gene domain [0, max_gene], tabulated: the
// two boundary terms pow(1 - delta, eta_m + 1) depend only on the integer
// gene, so they are computed once per gene value (2 * (max_gene + 1)
// pow calls) instead of once per mutated gene.  Read-only after
// construction, so one table serves every variation task of a run.
struct PmTable {
  PmTable(std::int32_t max_gene, const PmParams& params);

  std::int32_t max_gene;
  PmParams params;
  std::vector<double> lower;  // pow(1 - x / max_gene, eta_m + 1)
  std::vector<double> upper;  // pow(1 - (max_gene - x) / max_gene, eta_m + 1)
};

// Polynomial mutation in place.  Every gene must lie in
// [0, table.max_gene]; a gene outside it aborts.
void polynomial_mutation(std::vector<std::int32_t>& genes,
                         const PmTable& table, Rng& rng);

// Uniform random genes in [0, max_gene].
void randomize_genes(std::vector<std::int32_t>& genes, std::int32_t max_gene,
                     Rng& rng);

}  // namespace iaas
