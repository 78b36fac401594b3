// Variation operators.  The paper uses the SBX and PM standard operators
// on its integer server-ID genes; following common practice for integer
// decision variables, the real-coded operator runs on the continuous
// relaxation [0, max_gene] and the result is rounded and clamped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "ea/nsga_config.h"

namespace iaas {

// Table III's rates by default; tests vary them to probe the operators.
// The distribution indices are kSbxDistributionIndex and
// kPmDistributionIndex, and SBX swaps each gene with the standard
// probability 1/2.
struct SbxParams {
  double rate = kSbxRate;  // per-pair crossover probability
};

struct PmParams {
  double rate = kPmRate;  // per-gene mutation probability
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

// Bernoulli(p) as a bound on a raw draw's top 53 bits: rng.next_double()
// is (next_u64() >> 11) * 2^-53, so it is below p exactly when
// (next_u64() >> 11) < bernoulli_threshold(p) = ceil(p * 2^53), clamped to
// [0, 2^53].
std::uint64_t bernoulli_threshold(double p);

// A success of a TrialWalk: its trial's index and the uniform drawn after
// it, bit for bit what rng.next_double() returns for that draw.
struct TrialHit {
  std::size_t trial;
  double u;
};

// The per-gene loop of both operators,
//   for (t = 0; t < trials; ++t)
//     if (rng.next_double() < p) use(t, rng.next_double());
// with the same draws in the same order, in blocks of at most 64 raw
// values.  A block never draws more than the loop still must (every trial
// left, plus the uniform a carried success owes), so the generator stops
// where the loop stops.  Which draws are trials is an odd-run scan over
// the block's passing draws (each success's next draw is its uniform,
// whatever it holds), with no branch per trial.
class TrialWalk {
 public:
  // A block finishes at most this many successes: a success and its
  // uniform take two of its 64 draws.
  static constexpr std::size_t kMaxHits = 32;

  TrialWalk(std::size_t trials, std::uint64_t threshold)
      : trials_(trials), threshold_(threshold) {}

  [[nodiscard]] bool done() const { return next_ >= trials_ && carry_ == 0; }

  // Draws the next block and writes the successes whose uniform it holds
  // to `hits` (kMaxHits slots), in trial order; returns how many.  A
  // success on the block's last draw is finished by the next block.
  std::size_t next_block(Rng& rng, TrialHit* hits);

 private:
  std::size_t trials_;
  std::uint64_t threshold_;
  std::size_t next_ = 0;     // the next trial's index
  std::uint64_t carry_ = 0;  // 1: the next draw is the last success's u
};

// Simulated binary crossover on integer genes; children overwrite the
// provided buffers.  Each parent may alias its own child (parent_a with
// child_a, parent_b with child_b).
void sbx_crossover(const std::vector<std::int32_t>& parent_a,
                   const std::vector<std::int32_t>& parent_b,
                   std::vector<std::int32_t>& child_a,
                   std::vector<std::int32_t>& child_b, std::int32_t max_gene,
                   const SbxParams& params, Rng& rng);

// One swapped gene whose parents differ: its index, both parents' values
// and the swap's uniform.
struct SbxSwap {
  std::size_t gene;
  std::int32_t x1;
  std::int32_t x2;
  double u;
};

// SBX's children of at most 64 swaps from the spread factor taken as four
// square roots (within 1 ulp of pow(v, 1/16)), written to child_a[gene]
// and child_b[gene].  Returns a mask with bit i set where swap i's children
// lie too close to a rounding boundary to be sure they equal sbx_exact's;
// the caller runs sbx_exact on those.
std::uint64_t sbx_settle(std::span<const SbxSwap> swaps,
                         std::int32_t max_gene, std::int32_t* child_a,
                         std::int32_t* child_b);

// One swap's children through pow, the operator's defining formula.
void sbx_exact(const SbxSwap& swap, std::int32_t max_gene,
               std::int32_t* child_a, std::int32_t* child_b);

// Polynomial mutation over the gene domain [0, max_gene], tabulated: the
// two boundary terms pow(1 - delta, eta_m + 1) depend only on the integer
// gene, so they are computed once per gene value (2 * (max_gene + 1)
// pow calls) instead of once per mutated gene.  Read-only after
// construction, so one table serves every variation task of a run.
struct PmTable {
  PmTable(std::int32_t max_gene, const PmParams& params);

  std::int32_t max_gene;
  std::uint64_t threshold;  // bernoulli_threshold(rate)
  // Gene x's terms at 2x and 2x + 1: pow(1 - x / max_gene, eta_m + 1),
  // read when u <= 1/2, and pow(1 - (max_gene - x) / max_gene, eta_m + 1).
  std::vector<double> terms;
};

// Polynomial mutation in place.  Every gene must lie in
// [0, table.max_gene]; a gene outside it aborts.
void polynomial_mutation(std::vector<std::int32_t>& genes,
                         const PmTable& table, Rng& rng);

// One mutated gene: its index, its value x, its uniform and the boundary
// term its side reads (PmTable::terms[2x + (u > 1/2)]).
struct PmDraw {
  std::size_t gene;
  std::int32_t x;
  double u;
  double term;
};

// PM's results of at most 64 draws over [0, max_gene] (max_gene >= 1) from
// the power taken as four square roots, written to genes[gene].  Returns a
// mask with bit i set where draw i's result or its nudge direction may
// differ from pm_exact's; the caller runs pm_exact on those.
std::uint64_t pm_settle(std::span<const PmDraw> draws, std::int32_t max_gene,
                        std::int32_t* genes);

// One draw's result through pow, the operator's defining formula.
void pm_exact(const PmDraw& draw, std::int32_t max_gene, std::int32_t* genes);

// Uniform random genes in [0, max_gene].
void randomize_genes(std::vector<std::int32_t>& genes, std::int32_t max_gene,
                     Rng& rng);

}  // namespace iaas
