#include "ea/nondominated_sort.h"

#include <algorithm>
#include <limits>

namespace iaas {

void assign_crowding_distance(std::span<Individual> population,
                              const std::vector<std::size_t>& front) {
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
  std::vector<std::size_t> order(front);
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
