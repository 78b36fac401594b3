// Fast non-dominated sorting (Deb et al. 2002, the NSGA-II paper).
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "ea/individual.h"
#include "ea/nsga_config.h"

namespace iaas {

// ConstraintMode::kPenalty: added to every objective per violation.
inline constexpr double kPenaltyWeight = 1000.0;

// Partitions `population` indices into fronts F_0, F_1, ...; sets each
// individual's `rank` to its front number.  `dominates(a, b)` is the
// relation (plain, penalised or constrained dominance); it is a template
// parameter so the O(n^2) pairwise scan inlines it.  Front 0 lists its
// members in ascending index; front f+1 lists them in the order the
// members of front f, in turn, release them, each member releasing the
// ones it dominates in ascending index.
template <class Dominates>
std::vector<std::vector<std::size_t>> nondominated_sort(
    std::span<Individual> population, const Dominates& dominates) {
  const std::size_t n = population.size();
  // Row p of the bit matrix marks the members p dominates, so a row scan
  // yields them in ascending index with no per-member list.
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> dominated(n * words, 0);
  std::vector<std::size_t> domination_count(n, 0);
  const auto mark = [&](std::size_t p, std::size_t q) {
    dominated[p * words + q / 64] |= std::uint64_t{1} << (q % 64);
    ++domination_count[q];
  };
  std::vector<std::vector<std::size_t>> fronts(1);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = p + 1; q < n; ++q) {
      if (dominates(population[p], population[q])) {
        mark(p, q);
      } else if (dominates(population[q], population[p])) {
        mark(q, p);
      }
    }
    if (domination_count[p] == 0) {
      population[p].rank = 0;
      fronts[0].push_back(p);
    }
  }

  for (std::size_t current = 0; !fronts[current].empty(); ++current) {
    std::vector<std::size_t> next;
    for (std::size_t p : fronts[current]) {
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = dominated[p * words + w]; bits != 0;
             bits &= bits - 1) {
          const std::size_t q =
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          if (--domination_count[q] == 0) {
            population[q].rank = static_cast<std::uint32_t>(current + 1);
            next.push_back(q);
          }
        }
      }
    }
    fronts.push_back(std::move(next));
  }
  fronts.pop_back();  // trailing empty front
  return fronts;
}

// Fronts in one flat array: front f is order[offsets[f], offsets[f + 1]).
// Cleared and refilled by each sort, so its storage is reused.
struct Fronts {
  std::vector<std::size_t> order;
  std::vector<std::size_t> offsets;  // size() + 1 entries, or none

  [[nodiscard]] std::size_t size() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  [[nodiscard]] std::span<const std::size_t> operator[](std::size_t f) const {
    return std::span<const std::size_t>(order).subspan(
        offsets[f], offsets[f + 1] - offsets[f]);
  }
};

// Scratch of keyed_nondominated_sort, grown to the largest population it
// has seen: the engine keeps one across generations, so a sort allocates
// nothing once the first has run.
struct SortScratch {
  std::vector<double> keys;               // per key, one padded column
  std::vector<std::uint64_t> infeasible;  // bit i: member i violates
  std::vector<std::uint64_t> dominated;   // row p: the members p dominates
  std::vector<std::uint32_t> domination_count;
  Fronts fronts;
};

#if defined(__SSE2__)
// The sort above under the dominance `mode` implies, with the same fronts,
// front order and ranks as the template given that mode's comparator.
// Each member's keys are built once: its objectives (plus
// kPenaltyWeight * violations in kPenalty mode) and, in kExclude and
// kRepair mode, its violation count, under Deb's rule
// `va < vb || (va == 0 && vb == 0 && pareto(a, b))`.  Each row of the bit
// matrix is then filled in full, two candidates per SSE2 compare and 16
// per packed block, with no branch per pair; the same compares give the
// row of members that dominate p, whose popcount is p's domination count.
// As in the template, members on a dominance cycle (possible only through
// NaN objectives) join no front and keep their rank.  Returns
// scratch.fronts.
const Fronts& keyed_nondominated_sort(std::span<Individual> population,
                                      ConstraintMode mode,
                                      SortScratch& scratch);
#endif

// Crowding distance (NSGA-II) over one front; writes Individual::crowding.
// `order` is scratch, reused across calls so a warm one allocates nothing.
void assign_crowding_distance(std::span<Individual> population,
                              std::span<const std::size_t> front,
                              std::vector<std::size_t>& order);

}  // namespace iaas
