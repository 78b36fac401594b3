#include "ea/operators.h"

#include <algorithm>
#include <bit>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/expect.h"

namespace iaas {
namespace {

// Both operators raise to 1 / (eta + 1) = 1/16, four square roots.
static_assert(kSbxDistributionIndex == 15.0 && kPmDistributionIndex == 15.0,
              "the fast power takes 1 / (eta + 1) as four square roots");
constexpr double kExponent = 16.0;
constexpr double kInverseExponent = 1.0 / kExponent;

// SBX swaps each gene with probability 1/2: bernoulli_threshold(0.5).
constexpr std::uint64_t kSwapThreshold = std::uint64_t{1} << 52;

// A fast child is kept only when it lies farther than this, relative to
// the magnitude of its formula's terms, from a rounding boundary.  Four
// correctly rounded roots are within 1.9 * 2^-53 of v^(1/16) relative,
// glibc's pow within 0.52 ulp, and re-evaluating a child's few roundings
// moves it by at most about 2^-51 of that magnitude, so the pow-based
// value rounds to the same gene with room to spare (2^10).
constexpr double kMargin = 0x1p-40;

std::int32_t round_clamp(double value, std::int32_t max_gene) {
  return static_cast<std::int32_t>(std::clamp<std::int64_t>(
      round_half_away(value), 0, max_gene));
}

// round_clamp's gene, and how far `value` lies from the nearest
// half-integer, where the rounding changes: round_half_away's steps, with
// its exact fraction kept (measuring from the rounded gene instead costs
// a conversion per child, about 3% of a pair).
struct Rounded {
  std::int32_t gene;
  double slack;
};

Rounded round_clamp_with_slack(double value, std::int32_t max_gene) {
  const auto whole = static_cast<std::int64_t>(value);
  const double fraction = value - static_cast<double>(whole);
  const std::int64_t rounded =
      whole + (fraction >= 0.5 ? 1 : 0) - (fraction <= -0.5 ? 1 : 0);
  return {static_cast<std::int32_t>(std::clamp<std::int64_t>(rounded, 0,
                                                             max_gene)),
          std::fabs(std::fabs(fraction) - 0.5)};
}

// All ones when `condition` holds, else zero.
std::uint64_t mask_if(bool condition) {
  return std::uint64_t{0} - static_cast<std::uint64_t>(condition);
}

// `a` where `mask` is all ones, `b` where it is zero.  GCC compiles the
// plain ternary on u to a branch, which mispredicts on half the draws.
double select(std::uint64_t mask, double a, double b) {
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(a) & mask) |
                               (std::bit_cast<std::uint64_t>(b) & ~mask));
}

// v[i]^(1/16) in place for i < n, as four correctly rounded square roots,
// two lanes at a time; v[n] is padding read when n is odd.
void sixteenth_roots(double* v, std::size_t n) {
#if defined(__SSE2__)
  for (std::size_t i = 0; i < n; i += 2) {
    const __m128d r = _mm_loadu_pd(v + i);
    _mm_storeu_pd(v + i,
                  _mm_sqrt_pd(_mm_sqrt_pd(_mm_sqrt_pd(_mm_sqrt_pd(r)))));
  }
#else
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sqrt(std::sqrt(std::sqrt(std::sqrt(v[i]))));
  }
#endif
}

// Deb's SBX spread factor for a uniform draw u.
double sbx_beta(double u) {
  if (u <= 0.5) {
    return std::pow(2.0 * u, kInverseExponent);
  }
  return std::pow(1.0 / (2.0 * (1.0 - u)), kInverseExponent);
}

}  // namespace

void sbx_exact(const SbxSwap& swap, std::int32_t max_gene,
               std::int32_t* child_a, std::int32_t* child_b) {
  const double x1 = static_cast<double>(swap.x1);
  const double x2 = static_cast<double>(swap.x2);
  const double beta = sbx_beta(swap.u);
  child_a[swap.gene] =
      round_clamp(0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2), max_gene);
  child_b[swap.gene] =
      round_clamp(0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2), max_gene);
}

void pm_exact(const PmDraw& draw, std::int32_t max_gene,
              std::int32_t* genes) {
  const double range = static_cast<double>(max_gene);
  const double x = static_cast<double>(draw.x);
  const double u = draw.u;
  double deltaq;
  if (u <= 0.5) {
    const double val = 2.0 * u + (1.0 - 2.0 * u) * draw.term;
    deltaq = std::pow(val, kInverseExponent) - 1.0;
  } else {
    const double val = 2.0 * (1.0 - u) + 2.0 * (u - 0.5) * draw.term;
    deltaq = 1.0 - std::pow(val, kInverseExponent);
  }
  // Rounding can leave the gene unchanged on small perturbations; nudge
  // by one step in the mutation direction so PM always explores.
  std::int32_t result = round_clamp(x + deltaq * range, max_gene);
  if (result == draw.x) {
    result = round_clamp(x + (deltaq >= 0.0 ? 1.0 : -1.0), max_gene);
  }
  genes[draw.gene] = result;
}

std::uint64_t bernoulli_threshold(double p) {
  if (!(p > 0.0)) {
    return 0;  // NaN too: next_double() < NaN never holds
  }
  if (p >= 1.0) {
    return std::uint64_t{1} << 53;
  }
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

std::size_t TrialWalk::next_block(Rng& rng, TrialHit* hits) {
  IAAS_EXPECT(!done(), "TrialWalk: no draws left");
  const std::size_t draws =
      std::min<std::size_t>(64, trials_ - next_ + carry_);
  std::uint64_t raw[64];
  std::uint64_t pass = 0;
  for (std::size_t i = 0; i < draws; ++i) {
    raw[i] = rng.next_u64();
    pass |= static_cast<std::uint64_t>((raw[i] >> 11) < threshold_) << i;
  }
  // A passing draw is a success when it is a trial, and a success's next
  // draw is its uniform whatever it holds, so every run of passing draws
  // starts on a trial and its successes are the draws an even distance
  // from that start: the escapes of simdjson's odd-backslash scan.  A
  // carried success's uniform (position 0) starts no run.
  constexpr std::uint64_t kOdd = 0xAAAAAAAAAAAAAAAAull;
  const std::uint64_t h = pass & ~carry_;
  const std::uint64_t successes = ((((h << 1) | kOdd) - h) ^ kOdd) & h;
  const std::uint64_t drawn =
      draws == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << draws) - 1;
  // The j-th uniform at position p belongs to the trial at p - 1, after
  // p - 1 - j trials of this block (a carried one is the trial before).
  std::size_t count = 0;
  for (std::uint64_t uniforms = ((successes << 1) | carry_) & drawn;
       uniforms != 0; uniforms &= uniforms - 1) {
    const auto at = static_cast<std::size_t>(std::countr_zero(uniforms));
    hits[count] = {next_ + at - 1 - count,
                   static_cast<double>(raw[at] >> 11) * 0x1.0p-53};
    ++count;
  }
  carry_ = (successes >> (draws - 1)) & 1;
  next_ += draws - count;  // every draw but the uniforms is a trial
  return count;
}

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
  // Each gene is written once, after it is read, so the children (copies
  // of their parents until then) serve as the parents too.
  std::int32_t* a = child_a.data();
  std::int32_t* b = child_b.data();
  TrialWalk walk(child_a.size(), kSwapThreshold);
  TrialHit hits[TrialWalk::kMaxHits];
  SbxSwap swaps[TrialWalk::kMaxHits];
  while (!walk.done()) {
    const std::size_t count = walk.next_block(rng, hits);
    std::size_t differ = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t g = hits[i].trial;
      const std::int32_t x1 = a[g];
      const std::int32_t x2 = b[g];
      // Equal parents blend to x for any spread factor beta, up to a
      // rounding error below 2^-52 * (1 + beta) * x.  u < 1 - 2^-53
      // bounds beta by 2^(52 / (eta + 1)): about 9.5 at eta = 15.  So for
      // every gene below 2^24 both children round back to x, and beta is
      // not needed.  Where the parents differ, sbx_settle overwrites this.
      a[g] = b[g] = std::clamp(x1, 0, max_gene);
      swaps[differ] = {g, x1, x2, hits[i].u};
      differ += x1 != x2 ? 1 : 0;
    }
    for (std::uint64_t unsettled = sbx_settle({swaps, differ}, max_gene, a, b);
         unsettled != 0; unsettled &= unsettled - 1) {
      sbx_exact(swaps[std::countr_zero(unsettled)], max_gene, a, b);
    }
  }
}

std::uint64_t sbx_settle(std::span<const SbxSwap> swaps,
                         std::int32_t max_gene, std::int32_t* child_a,
                         std::int32_t* child_b) {
  const std::size_t n = swaps.size();
  IAAS_EXPECT(n <= 64, "sbx_settle takes at most 64 swaps");
  double beta[65];
  for (std::size_t i = 0; i < n; ++i) {
    const double u = swaps[i].u;
    beta[i] = select(mask_if(u <= 0.5), 2.0 * u, 1.0 / (2.0 * (1.0 - u)));
  }
  beta[n] = 1.0;
  sixteenth_roots(beta, n);
  std::uint64_t unsettled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const SbxSwap& swap = swaps[i];
    const double x1 = static_cast<double>(swap.x1);
    const double x2 = static_cast<double>(swap.x2);
    const double b = beta[i];
    const Rounded c1 = round_clamp_with_slack(
        0.5 * ((1.0 + b) * x1 + (1.0 - b) * x2), max_gene);
    const Rounded c2 = round_clamp_with_slack(
        0.5 * ((1.0 - b) * x1 + (1.0 + b) * x2), max_gene);
    child_a[swap.gene] = c1.gene;
    child_b[swap.gene] = c2.gene;
    const double margin =
        kMargin * (1.0 + b) * (std::fabs(x1) + std::fabs(x2));
    const bool certain = (c1.slack > margin) & (c2.slack > margin);
    unsettled |= static_cast<std::uint64_t>(!certain) << i;
  }
  return unsettled;
}

PmTable::PmTable(std::int32_t max_gene_in, const PmParams& params)
    : max_gene(max_gene_in), threshold(bernoulli_threshold(params.rate)) {
  IAAS_EXPECT(max_gene >= 0, "gene domain must be non-empty");
  if (max_gene == 0) {
    return;  // single server: polynomial_mutation never reads the table
  }
  const double range = static_cast<double>(max_gene);
  terms.resize(2 * (static_cast<std::size_t>(max_gene) + 1));
  for (std::int32_t gene = 0; gene <= max_gene; ++gene) {
    const double x = static_cast<double>(gene);
    const double delta1 = x / range;
    const double delta2 = (range - x) / range;
    const auto at = 2 * static_cast<std::size_t>(gene);
    terms[at] = std::pow(1.0 - delta1, kExponent);
    terms[at + 1] = std::pow(1.0 - delta2, kExponent);
  }
}

void polynomial_mutation(std::vector<std::int32_t>& genes,
                         const PmTable& table, Rng& rng) {
  const std::int32_t max_gene = table.max_gene;
  if (max_gene == 0) {
    return;  // single server: nothing to mutate to
  }
  std::uint32_t largest = 0;  // a negative gene reads as 2^31 or more
  for (const std::int32_t gene : genes) {
    largest = std::max(largest, static_cast<std::uint32_t>(gene));
  }
  IAAS_EXPECT(largest <= static_cast<std::uint32_t>(max_gene),
              "polynomial mutation: gene outside [0, max_gene]");
  std::int32_t* data = genes.data();
  const double* terms = table.terms.data();
  TrialWalk walk(genes.size(), table.threshold);
  TrialHit hits[TrialWalk::kMaxHits];
  PmDraw draws[TrialWalk::kMaxHits];
  while (!walk.done()) {
    const std::size_t count = walk.next_block(rng, hits);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t g = hits[i].trial;
      const std::int32_t x = data[g];
      const double u = hits[i].u;
      draws[i] = {g, x, u,
                  terms[2 * static_cast<std::size_t>(x) + (u > 0.5 ? 1 : 0)]};
    }
    for (std::uint64_t unsettled = pm_settle({draws, count}, max_gene, data);
         unsettled != 0; unsettled &= unsettled - 1) {
      pm_exact(draws[std::countr_zero(unsettled)], max_gene, data);
    }
  }
}

std::uint64_t pm_settle(std::span<const PmDraw> draws, std::int32_t max_gene,
                        std::int32_t* genes) {
  const std::size_t n = draws.size();
  IAAS_EXPECT(n <= 64, "pm_settle takes at most 64 draws");
  const double range = static_cast<double>(max_gene);
  double root[65];
  for (std::size_t i = 0; i < n; ++i) {
    // pm_exact's val on either side of u = 1/2, both sides computed.
    const double u = draws[i].u;
    const std::uint64_t low = mask_if(u <= 0.5);
    root[i] = select(low, 2.0 * u, 2.0 * (1.0 - u)) +
              select(low, 1.0 - 2.0 * u, 2.0 * (u - 0.5)) * draws[i].term;
  }
  root[n] = 1.0;
  sixteenth_roots(root, n);
  std::uint64_t unsettled = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const PmDraw& draw = draws[i];
    const double x = static_cast<double>(draw.x);
    const double deltaq =
        select(mask_if(draw.u <= 0.5), root[i] - 1.0, 1.0 - root[i]);
    const Rounded mutated =
        round_clamp_with_slack(x + deltaq * range, max_gene);
    // pm_exact's nudge where rounding kept the gene, selected by a mask
    // (GCC branches on the ternary).  With |deltaq| past the margin, pow's
    // deltaq has the same sign, so the nudge goes the same way.
    const auto nudged = static_cast<std::int32_t>(std::clamp<std::int64_t>(
        std::int64_t{draw.x} + (deltaq >= 0.0 ? 1 : -1), 0, max_gene));
    const auto kept =
        static_cast<std::int32_t>(mask_if(mutated.gene == draw.x));
    genes[draw.gene] = (nudged & kept) | (mutated.gene & ~kept);
    const bool certain = (std::fabs(deltaq) > kMargin) &
                         (mutated.slack > kMargin * (x + range));
    unsettled |= static_cast<std::uint64_t>(!certain) << i;
  }
  return unsettled;
}

void randomize_genes(std::vector<std::int32_t>& genes, std::int32_t max_gene,
                     Rng& rng) {
  for (std::int32_t& gene : genes) {
    gene = static_cast<std::int32_t>(rng.uniform_int(0, max_gene));
  }
}

}  // namespace iaas
