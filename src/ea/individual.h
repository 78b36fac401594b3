// EA solution representation (paper §III): each individual's chromosome
// is the VM list; each gene holds the hosting server ID.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/objective_types.h"

namespace iaas {

struct Individual {
  std::vector<std::int32_t> genes;  // VM k -> server id

  // Objective values (usage, downtime, migration — Eq. 15 terms), set by
  // evaluation; constrained modes add the violation count.
  std::array<double, ObjectiveVector::kCount> objectives{};
  std::uint32_t violations = 0;

  // Selection bookkeeping (owned by the NSGA engines).
  std::uint32_t rank = 0;
  double crowding = 0.0;
  // NSGA-III association (set by its environmental selection; consumed
  // by the U-NSGA-III niche tournament).
  std::uint32_t ref_index = 0;
  double ref_distance = 0.0;
};

using Population = std::vector<Individual>;

// Pareto dominance on raw objective values (minimisation); the kernel the
// Individual overload and the penalised comparators share.  Inline, like
// the other two: the non-dominated sort calls them once per pair of
// individuals every generation.
inline bool dominates(std::span<const double> a, std::span<const double> b) {
  bool strictly_better = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) {
      return false;
    }
    if (a[i] < b[i]) {
      strictly_better = true;
    }
  }
  return strictly_better;
}

// Pareto dominance on the objective arrays (minimisation).
inline bool dominates(const Individual& a, const Individual& b) {
  return dominates(std::span<const double>(a.objectives),
                   std::span<const double>(b.objectives));
}

// Deb's constrained dominance: feasible beats infeasible; among
// infeasible, fewer violations win; among feasible, Pareto dominance.
inline bool constrained_dominates(const Individual& a, const Individual& b) {
  const bool a_feasible = a.violations == 0;
  const bool b_feasible = b.violations == 0;
  if (a_feasible != b_feasible) {
    return a_feasible;
  }
  if (!a_feasible) {
    return a.violations < b.violations;
  }
  return dominates(a, b);
}

}  // namespace iaas
