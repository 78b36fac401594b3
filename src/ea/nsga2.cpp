#include "ea/nsga2.h"

#include <algorithm>
#include <numeric>

namespace iaas {

void Nsga2::environmental_selection(Population& population, Population& next,
                                    Rng& /*rng*/) {
  const std::span<Individual> merged =
      config().constraint_mode == ConstraintMode::kExclude
          ? apply_exclusion(population)
          : std::span<Individual>(population);
  const Fronts& fronts = sort_fronts(merged);
  next.clear();
  next.reserve(config().population_size);
  for (std::size_t f = 0; f < fronts.size(); ++f) {
    const std::span<const std::size_t> front = fronts[f];
    assign_crowding_distance(merged, front, order_);
    if (next.size() + front.size() <= config().population_size) {
      for (std::size_t idx : front) {
        next.push_back(std::move(merged[idx]));
      }
      if (next.size() == config().population_size) {
        break;
      }
      continue;
    }
    // Partial front: keep the most spread-out individuals, ties in front
    // order.  That is std::stable_sort's order; sorting positions with
    // the position as tie-break finds it without the stable sort's
    // buffer.  Crowding is never NaN (objectives are finite), so the
    // comparison is a strict total order.
    order_.resize(front.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      const double ca = merged[front[a]].crowding;
      const double cb = merged[front[b]].crowding;
      return ca > cb || (ca == cb && a < b);
    });
    for (std::size_t i = 0; next.size() < config().population_size; ++i) {
      next.push_back(std::move(merged[front[order_[i]]]));
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
