#include "ea/nsga2.h"

#include <algorithm>

namespace iaas {

void Nsga2::environmental_selection(Population& merged, Population& next,
                                    Rng& /*rng*/) {
  if (config().constraint_mode == ConstraintMode::kExclude) {
    apply_exclusion(merged);
  }
  const Fronts& fronts = sort_fronts(merged);
  next.clear();
  next.reserve(config().population_size);
  for (std::size_t f = 0; f < fronts.size(); ++f) {
    const std::span<const std::size_t> front = fronts[f];
    assign_crowding_distance(merged, front);
    if (next.size() + front.size() <= config().population_size) {
      for (std::size_t idx : front) {
        next.push_back(std::move(merged[idx]));
      }
      if (next.size() == config().population_size) {
        break;
      }
      continue;
    }
    // Partial front: keep the most spread-out individuals.
    std::vector<std::size_t> order(front.begin(), front.end());
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return merged[a].crowding > merged[b].crowding;
                     });
    for (std::size_t i = 0; next.size() < config().population_size; ++i) {
      next.push_back(std::move(merged[order[i]]));
    }
    break;
  }
}

const Individual& Nsga2::tournament(const Population& population, Rng& rng) {
  // Crowded-comparison operator: rank first, then crowding distance.
  const Individual& a = population[rng.uniform_index(population.size())];
  const Individual& b = population[rng.uniform_index(population.size())];
  if (a.rank != b.rank) {
    return a.rank < b.rank ? a : b;
  }
  if (a.crowding != b.crowding) {
    return a.crowding > b.crowding ? a : b;
  }
  return rng.bernoulli(0.5) ? a : b;
}

}  // namespace iaas
