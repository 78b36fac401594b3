#include "ea/nondominated_sort.h"

#include <algorithm>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace iaas {
namespace {

constexpr std::size_t kObjectiveKeys = ObjectiveVector::kCount;
static_assert(kObjectiveKeys == 3, "the row scan compares three objectives");

// Candidates per block, packed into 16 bits: eight SSE2 steps of two.
constexpr std::size_t kBlock = 16;

#if defined(__SSE2__)
// One key of the member a row belongs to, broadcast to both lanes.
using Key = __m128d;
inline Key broadcast(double key) { return _mm_set1_pd(key); }
#else
using Key = double;
inline Key broadcast(double key) { return key; }
#endif

// Key columns (objectives, then violations) and one member's keys.
using Columns = const double* const (&)[kObjectiveKeys + 1];
using Mine = const Key (&)[kObjectiveKeys + 1];

#if defined(__SSE2__)
// Candidates q and q + 1 against p: a lane of `lower` / `higher` is all
// ones when the candidate's key is lower / higher than p's.  With
// `kPareto` the three objective keys are compared and a lane is set when
// any of them compares so; otherwise the violation key alone.  (These
// helpers say `inline` because GCC at -O2 otherwise keeps compare_quad
// out of line and passes every mask through memory.)
template <bool kPareto>
inline void compare_step(Columns columns, Mine mine, std::size_t q,
                         __m128d& lower, __m128d& higher) {
  if constexpr (kPareto) {
    const __m128d theirs0 = _mm_loadu_pd(columns[0] + q);
    const __m128d theirs1 = _mm_loadu_pd(columns[1] + q);
    const __m128d theirs2 = _mm_loadu_pd(columns[2] + q);
    lower = _mm_or_pd(_mm_or_pd(_mm_cmplt_pd(theirs0, mine[0]),
                                _mm_cmplt_pd(theirs1, mine[1])),
                      _mm_cmplt_pd(theirs2, mine[2]));
    higher = _mm_or_pd(_mm_or_pd(_mm_cmpgt_pd(theirs0, mine[0]),
                                 _mm_cmpgt_pd(theirs1, mine[1])),
                       _mm_cmpgt_pd(theirs2, mine[2]));
  } else {
    const __m128d theirs = _mm_loadu_pd(columns[kObjectiveKeys] + q);
    lower = _mm_cmplt_pd(theirs, mine[kObjectiveKeys]);
    higher = _mm_cmpgt_pd(theirs, mine[kObjectiveKeys]);
  }
}

// Two steps' masks as four 32-bit lanes, in candidate order: the high
// half of each 64-bit lane carries its candidate's mask.
inline __m128i quad(__m128d first, __m128d second) {
  return _mm_castps_si128(_mm_shuffle_ps(
      _mm_castpd_ps(first), _mm_castpd_ps(second), _MM_SHUFFLE(3, 1, 3, 1)));
}

// Candidates q .. q + 3 as 32-bit lanes.
template <bool kPareto>
inline void compare_quad(Columns columns, Mine mine, std::size_t q,
                         __m128i& lower, __m128i& higher) {
  __m128d lower_a;
  __m128d higher_a;
  __m128d lower_b;
  __m128d higher_b;
  compare_step<kPareto>(columns, mine, q, lower_a, higher_a);
  compare_step<kPareto>(columns, mine, q + 2, lower_b, higher_b);
  lower = quad(lower_a, lower_b);
  higher = quad(higher_a, higher_b);
}

// Four quads as 16 bits, candidate i in bit i.
inline std::uint64_t pack16(__m128i a, __m128i b, __m128i c, __m128i d) {
  const __m128i bytes =
      _mm_packs_epi16(_mm_packs_epi32(a, b), _mm_packs_epi32(c, d));
  return static_cast<std::uint32_t>(_mm_movemask_epi8(bytes));
}

// Candidates q .. q + 15: bit i of `lower` / `higher` as in compare_step.
template <bool kPareto>
inline void compare_block(Columns columns, Mine mine, std::size_t q,
                          std::uint64_t& lower, std::uint64_t& higher) {
  __m128i lower0, higher0, lower1, higher1;
  __m128i lower2, higher2, lower3, higher3;
  compare_quad<kPareto>(columns, mine, q, lower0, higher0);
  compare_quad<kPareto>(columns, mine, q + 4, lower1, higher1);
  compare_quad<kPareto>(columns, mine, q + 8, lower2, higher2);
  compare_quad<kPareto>(columns, mine, q + 12, lower3, higher3);
  lower = pack16(lower0, lower1, lower2, lower3);
  higher = pack16(higher0, higher1, higher2, higher3);
}
#else
// Without SSE2: the same 16 bits, one candidate at a time.
template <bool kPareto>
inline void compare_block(Columns columns, Mine mine, std::size_t q,
                          std::uint64_t& lower, std::uint64_t& higher) {
  lower = 0;
  higher = 0;
  for (std::size_t i = q; i < q + kBlock; ++i) {
    bool below;
    bool above;
    if constexpr (kPareto) {
      below = (columns[0][i] < mine[0]) | (columns[1][i] < mine[1]) |
              (columns[2][i] < mine[2]);
      above = (columns[0][i] > mine[0]) | (columns[1][i] > mine[1]) |
              (columns[2][i] > mine[2]);
    } else {
      below = columns[kObjectiveKeys][i] < mine[kObjectiveKeys];
      above = columns[kObjectiveKeys][i] > mine[kObjectiveKeys];
    }
    lower |= std::uint64_t{below} << (i - q);
    higher |= std::uint64_t{above} << (i - q);
  }
}
#endif

// Fills row p of `dominated` (the members p dominates) for every p, and
// counts the members that dominate p.  `keys` holds one column per
// objective and then the violation column, each `padded` (n rounded up
// to a whole block) long; the padding slots hold zeros and their bits
// are masked off.  Pareto dominance of p over q is "better somewhere,
// worse nowhere"; the same compares give q over p.  Under Deb's rule
// (`infeasible` non-null: its bit q is set when q violates a constraint)
// a feasible p also dominates every infeasible q and is dominated by no
// infeasible q, and an infeasible p compares by violations alone.
void fill_rows(std::size_t n, std::size_t padded, const double* keys,
               const std::uint64_t* infeasible, std::uint64_t* dominated,
               std::uint32_t* domination_count) {
  const std::size_t words = (n + 63) / 64;
  const double* const columns[kObjectiveKeys + 1] = {
      keys, keys + padded, keys + 2 * padded, keys + 3 * padded};
  for (std::size_t p = 0; p < n; ++p) {
    const Key mine[kObjectiveKeys + 1] = {
        broadcast(columns[0][p]), broadcast(columns[1][p]),
        broadcast(columns[2][p]), broadcast(columns[3][p])};
    const bool by_violations =
        infeasible != nullptr && ((infeasible[p / 64] >> (p % 64)) & 1) != 0;
    std::uint32_t dominated_by = 0;
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t begin = w * 64;
      const std::size_t end = std::min(begin + 64, padded);
      std::uint64_t better = 0;  // p has the lower key
      std::uint64_t worse = 0;
      for (std::size_t q = begin; q < end; q += kBlock) {
        std::uint64_t lower = 0;
        std::uint64_t higher = 0;
        if (by_violations) {
          compare_block<false>(columns, mine, q, lower, higher);
        } else {
          compare_block<true>(columns, mine, q, lower, higher);
        }
        better |= higher << (q - begin);
        worse |= lower << (q - begin);
      }
      std::uint64_t over = better & ~worse;
      std::uint64_t under = worse & ~better;
      if (infeasible != nullptr && !by_violations) {
        over |= infeasible[w];
        under &= ~infeasible[w];
      }
      const std::uint64_t real = n - begin >= 64
                                     ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << (n - begin)) - 1;
      dominated[p * words + w] = over & real;
      dominated_by += static_cast<std::uint32_t>(std::popcount(under & real));
    }
    domination_count[p] = dominated_by;
  }
}

}  // namespace

const Fronts& keyed_nondominated_sort(std::span<Individual> population,
                                      ConstraintMode mode,
                                      SortScratch& scratch) {
  const std::size_t n = population.size();
  const std::size_t padded = (n + kBlock - 1) / kBlock * kBlock;
  const std::size_t words = (n + 63) / 64;
  const bool penalised = mode == ConstraintMode::kPenalty;
  const bool constrained = mode == ConstraintMode::kExclude ||
                           mode == ConstraintMode::kRepair;

  scratch.keys.assign((kObjectiveKeys + 1) * padded, 0.0);
  scratch.infeasible.assign(words, 0);
  double* keys = scratch.keys.data();
  for (std::size_t i = 0; i < n; ++i) {
    const Individual& member = population[i];
    for (std::size_t k = 0; k < kObjectiveKeys; ++k) {
      keys[k * padded + i] =
          penalised ? member.objectives[k] + kPenaltyWeight * member.violations
                    : member.objectives[k];
    }
    keys[kObjectiveKeys * padded + i] = member.violations;
    if (member.violations > 0) {
      scratch.infeasible[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
  scratch.dominated.resize(n * words);
  scratch.domination_count.resize(n);
  std::uint32_t* count = scratch.domination_count.data();
  fill_rows(n, padded, keys, constrained ? scratch.infeasible.data() : nullptr,
            scratch.dominated.data(), count);

  // Peel the fronts in the template's release order.
  Fronts& fronts = scratch.fronts;
  fronts.order.clear();
  fronts.order.reserve(n);
  fronts.offsets.reserve(n + 1);  // at most n fronts
  fronts.offsets.assign(1, 0);
  for (std::size_t p = 0; p < n; ++p) {
    if (count[p] == 0) {
      population[p].rank = 0;
      fronts.order.push_back(p);
    }
  }
  for (std::uint32_t rank = 1; fronts.offsets.back() < fronts.order.size();
       ++rank) {
    const std::size_t begin = fronts.offsets.back();
    const std::size_t end = fronts.order.size();
    fronts.offsets.push_back(end);
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint64_t* row =
          scratch.dominated.data() + fronts.order[i] * words;
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
          const std::size_t q =
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          if (--count[q] == 0) {
            population[q].rank = rank;
            fronts.order.push_back(q);
          }
        }
      }
    }
  }
  return fronts;
}

void assign_crowding_distance(std::span<Individual> population,
                              std::span<const std::size_t> front,
                              std::vector<std::size_t>& order) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t i : front) {
    population[i].crowding = 0.0;
  }
  if (front.size() <= 2) {
    for (std::size_t i : front) {
      population[i].crowding = kInf;
    }
    return;
  }
  const std::size_t objectives = population[front[0]].objectives.size();
  order.assign(front.begin(), front.end());
  for (std::size_t obj = 0; obj < objectives; ++obj) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return population[a].objectives[obj] < population[b].objectives[obj];
    });
    const double lo = population[order.front()].objectives[obj];
    const double hi = population[order.back()].objectives[obj];
    population[order.front()].crowding = kInf;
    population[order.back()].crowding = kInf;
    if (hi <= lo) {
      continue;  // degenerate axis: no spread to reward
    }
    for (std::size_t i = 1; i + 1 < order.size(); ++i) {
      const double gap = population[order[i + 1]].objectives[obj] -
                         population[order[i - 1]].objectives[obj];
      population[order[i]].crowding += gap / (hi - lo);
    }
  }
}

}  // namespace iaas
