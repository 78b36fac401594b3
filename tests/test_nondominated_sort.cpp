// Fast non-dominated sorting, dominance relations, crowding distance.
#include "ea/nondominated_sort.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"

namespace iaas {
namespace {

Individual ind(double a, double b, double c, std::uint32_t violations = 0) {
  Individual i;
  i.objectives = {a, b, c};
  i.violations = violations;
  return i;
}

const auto kPlain = [](const Individual& a, const Individual& b) {
  return dominates(a, b);
};
const auto kConstrained = [](const Individual& a, const Individual& b) {
  return constrained_dominates(a, b);
};

TEST(Dominance, StrictlyBetterOnOneAxisDominates) {
  EXPECT_TRUE(dominates(ind(1, 2, 3), ind(1, 2, 4)));
  EXPECT_FALSE(dominates(ind(1, 2, 4), ind(1, 2, 3)));
}

TEST(Dominance, EqualPointsDoNotDominate) {
  EXPECT_FALSE(dominates(ind(1, 2, 3), ind(1, 2, 3)));
}

TEST(Dominance, IncomparablePoints) {
  EXPECT_FALSE(dominates(ind(1, 5, 3), ind(2, 1, 3)));
  EXPECT_FALSE(dominates(ind(2, 1, 3), ind(1, 5, 3)));
}

TEST(ConstrainedDominance, FeasibleBeatsInfeasible) {
  EXPECT_TRUE(constrained_dominates(ind(9, 9, 9, 0), ind(1, 1, 1, 1)));
  EXPECT_FALSE(constrained_dominates(ind(1, 1, 1, 1), ind(9, 9, 9, 0)));
}

TEST(ConstrainedDominance, FewerViolationsWinAmongInfeasible) {
  EXPECT_TRUE(constrained_dominates(ind(9, 9, 9, 1), ind(1, 1, 1, 5)));
}

TEST(ConstrainedDominance, ParetoAmongFeasible) {
  EXPECT_TRUE(constrained_dominates(ind(1, 1, 1, 0), ind(2, 2, 2, 0)));
  EXPECT_FALSE(constrained_dominates(ind(1, 5, 1, 0), ind(2, 2, 2, 0)));
}

TEST(NondominatedSort, SingleFrontWhenIncomparable) {
  Population pop = {ind(1, 3, 2), ind(2, 1, 3), ind(3, 2, 1)};
  const auto fronts = nondominated_sort(pop, kPlain);
  ASSERT_EQ(fronts.size(), 1u);
  EXPECT_EQ(fronts[0].size(), 3u);
  for (const Individual& i : pop) {
    EXPECT_EQ(i.rank, 0u);
  }
}

TEST(NondominatedSort, ChainGivesOneFrontEach) {
  Population pop = {ind(3, 3, 3), ind(1, 1, 1), ind(2, 2, 2)};
  const auto fronts = nondominated_sort(pop, kPlain);
  ASSERT_EQ(fronts.size(), 3u);
  EXPECT_EQ(pop[1].rank, 0u);
  EXPECT_EQ(pop[2].rank, 1u);
  EXPECT_EQ(pop[0].rank, 2u);
}

TEST(NondominatedSort, FrontsPartitionPopulation) {
  Rng rng(3);
  Population pop;
  for (int i = 0; i < 60; ++i) {
    pop.push_back(ind(rng.next_double(), rng.next_double(),
                      rng.next_double()));
  }
  const auto fronts = nondominated_sort(pop, kPlain);
  std::size_t total = 0;
  for (const auto& f : fronts) {
    total += f.size();
  }
  EXPECT_EQ(total, pop.size());
}

TEST(NondominatedSort, RankZeroIsTrulyNondominated) {
  Rng rng(5);
  Population pop;
  for (int i = 0; i < 80; ++i) {
    pop.push_back(ind(rng.next_double(), rng.next_double(),
                      rng.next_double()));
  }
  const auto fronts = nondominated_sort(pop, kPlain);
  for (std::size_t a : fronts[0]) {
    for (const Individual& other : pop) {
      EXPECT_FALSE(dominates(other, pop[a]));
    }
  }
}

TEST(NondominatedSort, LowerFrontsDominatedBySomeEarlierMember) {
  Rng rng(7);
  Population pop;
  for (int i = 0; i < 50; ++i) {
    pop.push_back(ind(rng.next_double(), rng.next_double(),
                      rng.next_double()));
  }
  const auto fronts = nondominated_sort(pop, kPlain);
  for (std::size_t f = 1; f < fronts.size(); ++f) {
    for (std::size_t idx : fronts[f]) {
      bool dominated_by_prev = false;
      for (std::size_t prev : fronts[f - 1]) {
        if (dominates(pop[prev], pop[idx])) {
          dominated_by_prev = true;
          break;
        }
      }
      EXPECT_TRUE(dominated_by_prev);
    }
  }
}

TEST(NondominatedSort, ConstrainedModeSeparatesInfeasible) {
  Population pop = {ind(1, 1, 1, 3), ind(5, 5, 5, 0), ind(2, 2, 2, 1)};
  const auto fronts = nondominated_sort(pop, kConstrained);
  EXPECT_EQ(pop[1].rank, 0u);  // feasible first
  EXPECT_EQ(pop[2].rank, 1u);  // 1 violation
  EXPECT_EQ(pop[0].rank, 2u);  // 3 violations
  EXPECT_EQ(fronts.size(), 3u);
}

// Deb's sort as first written — one growing dominated list per member,
// the relation behind a std::function — kept as the reference the
// template is compared against.
std::vector<std::vector<std::size_t>> reference_sort(
    std::span<Individual> population,
    const std::function<bool(const Individual&, const Individual&)>& dom) {
  const std::size_t n = population.size();
  std::vector<std::vector<std::size_t>> dominated_by(n);
  std::vector<std::size_t> domination_count(n, 0);
  std::vector<std::vector<std::size_t>> fronts(1);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = p + 1; q < n; ++q) {
      if (dom(population[p], population[q])) {
        dominated_by[p].push_back(q);
        ++domination_count[q];
      } else if (dom(population[q], population[p])) {
        dominated_by[q].push_back(p);
        ++domination_count[p];
      }
    }
    if (domination_count[p] == 0) {
      population[p].rank = 0;
      fronts[0].push_back(p);
    }
  }
  std::size_t current = 0;
  while (!fronts[current].empty()) {
    std::vector<std::size_t> next;
    for (std::size_t p : fronts[current]) {
      for (std::size_t q : dominated_by[p]) {
        if (--domination_count[q] == 0) {
          population[q].rank = static_cast<std::uint32_t>(current + 1);
          next.push_back(q);
        }
      }
    }
    ++current;
    fronts.push_back(std::move(next));
  }
  fronts.pop_back();
  return fronts;
}

// Objectives drawn from a handful of levels (ties, exact duplicates and
// both signed zeros), with the odd NaN, and violation counts in 0..3
// (infeasible members) for about `infeasible` of the members.
Population random_population(Rng& rng, std::size_t n, double infeasible) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Population pop(n);
  for (Individual& member : pop) {
    for (double& v : member.objectives) {
      const std::int64_t level = rng.uniform_int(-1, 4);
      v = rng.bernoulli(0.03) ? kNaN
          : level < 0         ? -0.0
                              : static_cast<double>(level);
    }
    member.violations = rng.bernoulli(infeasible)
                            ? static_cast<std::uint32_t>(rng.uniform_int(1, 3))
                            : 0u;
  }
  for (std::size_t i = 0; i + 1 < n; i += 7) {
    pop[i + 1].objectives = pop[i].objectives;  // exact duplicates
    pop[i + 1].violations = pop[i].violations;
  }
  return pop;
}

#if defined(__SSE2__)
std::vector<std::vector<std::size_t>> nested(const Fronts& fronts) {
  std::vector<std::vector<std::size_t>> out;
  for (std::size_t f = 0; f < fronts.size(); ++f) {
    out.emplace_back(fronts[f].begin(), fronts[f].end());
  }
  return out;
}
#endif

// The template and the keyed kernel against Deb's list-based sort: same
// fronts, same order within each front, same ranks.  Sizes straddle the
// kernel's padding (its key columns are padded to a multiple of 16) and
// its 64-bit row words; one scratch serves every call, as in the engine.
TEST(NondominatedSort, MatchesDebReferenceUnderEveryDominance) {
  const auto penalised = [](const Individual& a, const Individual& b) {
    std::array<double, ObjectiveVector::kCount> pa = a.objectives;
    std::array<double, ObjectiveVector::kCount> pb = b.objectives;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      pa[i] += 1000.0 * a.violations;
      pb[i] += 1000.0 * b.violations;
    }
    return dominates(std::span<const double>(pa),
                     std::span<const double>(pb));
  };
  SortScratch scratch;
  const auto check = [&](const Population& pop, const auto& dom,
                         ConstraintMode mode) {
    Population expected_pop = pop;
    const auto expected = reference_sort(expected_pop, dom);
    Population template_pop = pop;
    ASSERT_EQ(nondominated_sort(template_pop, dom), expected);
    for (std::size_t i = 0; i < pop.size(); ++i) {
      ASSERT_EQ(template_pop[i].rank, expected_pop[i].rank) << "member " << i;
    }
#if defined(__SSE2__)
    Population keyed_pop = pop;
    ASSERT_EQ(nested(keyed_nondominated_sort(keyed_pop, mode, scratch)),
              expected);
    for (std::size_t i = 0; i < pop.size(); ++i) {
      ASSERT_EQ(keyed_pop[i].rank, expected_pop[i].rank) << "member " << i;
    }
#else
    (void)mode;
#endif
  };
  Rng rng(21);
  for (std::size_t n :
       {0u, 1u, 2u, 5u, 47u, 48u, 63u, 64u, 65u, 130u, 200u}) {
    for (int round = 0; round < 20; ++round) {
      Population pop = random_population(rng, n, 0.4);
      // Untouched ranks must stay as they were, as in the reference.
      for (Individual& member : pop) {
        member.rank = 99;
      }
      check(pop, kPlain, ConstraintMode::kIgnore);
      check(pop, penalised, ConstraintMode::kPenalty);
      check(pop, kConstrained, ConstraintMode::kExclude);
      check(pop, kConstrained, ConstraintMode::kRepair);
      check(random_population(rng, n, 0.0), kConstrained,
            ConstraintMode::kRepair);
    }
  }
}

TEST(Crowding, BoundariesAreInfinite) {
  Population pop = {ind(1, 9, 5), ind(2, 8, 5), ind(3, 7, 5), ind(4, 6, 5)};
  std::vector<std::size_t> front = {0, 1, 2, 3};
  std::vector<std::size_t> order;
  assign_crowding_distance(pop, front, order);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(pop[0].crowding, kInf);
  EXPECT_EQ(pop[3].crowding, kInf);
  EXPECT_GT(pop[1].crowding, 0.0);
  EXPECT_LT(pop[1].crowding, kInf);
}

TEST(Crowding, TinyFrontsAllInfinite) {
  Population pop = {ind(1, 1, 1), ind(2, 2, 2)};
  std::vector<std::size_t> front = {0, 1};
  std::vector<std::size_t> order;
  assign_crowding_distance(pop, front, order);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(pop[0].crowding, kInf);
  EXPECT_EQ(pop[1].crowding, kInf);
}

TEST(Crowding, IsolatedPointGetsLargerDistance) {
  // Points evenly spaced except one isolated in the middle axis.
  Population pop = {ind(0, 0, 0), ind(1, 1, 1), ind(5, 5, 5),
                    ind(9, 9, 9), ind(10, 10, 10)};
  std::vector<std::size_t> front = {0, 1, 2, 3, 4};
  std::vector<std::size_t> order;
  assign_crowding_distance(pop, front, order);
  // Middle point (index 2) spans a wide gap; its crowding beats its
  // immediate neighbours'.
  EXPECT_GT(pop[2].crowding, pop[1].crowding);
  EXPECT_GT(pop[2].crowding, pop[3].crowding);
}

TEST(Crowding, DegenerateAxisIgnored) {
  // All identical on every axis: no spread, finite zero distances except
  // boundaries.
  Population pop = {ind(1, 1, 1), ind(1, 1, 1), ind(1, 1, 1)};
  std::vector<std::size_t> front = {0, 1, 2};
  std::vector<std::size_t> order;
  assign_crowding_distance(pop, front, order);
  EXPECT_EQ(pop[1].crowding, 0.0);
}

}  // namespace
}  // namespace iaas
