// Decision making on the final Pareto front (paper §III end): "while
// using a Euclidean approach, we choose the solution that is found closer
// to the ideal point where cost and rejection rate are the next to
// naught" — full automation, no decision maker in the loop.
//
// Each objective is min-max normalised over the front and the member with
// the smallest Euclidean distance to the origin wins; feasible members
// (zero violations) are preferred over infeasible ones.
#pragma once

#include <cstddef>
#include <vector>

#include "ea/individual.h"

namespace iaas {

// Index into `front` of the selected solution. Front must be non-empty.
std::size_t select_ideal_point(const std::vector<Individual>& front);

}  // namespace iaas
