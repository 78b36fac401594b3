// Umbrella header: the library's full public API in one include.
//
//   #include "iaas.h"
//
// Layered bottom-up: common utilities -> topology -> cloud model ->
// workload generation -> solvers (LP/CP, EA, tabu) -> allocators ->
// simulation -> serialisation.
#pragma once

// Common substrate.
#include "common/csv.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "common/thread_pool.h"

// Spine-leaf datacenter fabric (paper Fig. 1).
#include "topology/fabric.h"

// Cloud resource model (paper Table I, Eqs. 1-26).
#include "model/attributes.h"
#include "model/availability.h"
#include "model/constraint_checker.h"
#include "model/infrastructure.h"
#include "model/instance.h"
#include "model/load_model.h"
#include "model/objective_types.h"
#include "model/placement.h"
#include "model/placement_constraint.h"
#include "model/placement_state.h"
#include "model/request_set.h"
#include "model/server.h"
#include "model/validate.h"
#include "model/vm_request.h"

// Random scenario generation.
#include "workload/generator.h"
#include "workload/scenario_config.h"

// Integer-programming formulation, CP solver, LP relaxation.
#include "lp/cp_solver.h"
#include "lp/lin_expr.h"
#include "lp/lin_model.h"
#include "lp/simplex.h"

// Evolutionary framework (NSGA-II / NSGA-III).
#include "ea/hypervolume.h"
#include "ea/individual.h"
#include "ea/nondominated_sort.h"
#include "ea/nsga2.h"
#include "ea/nsga3.h"
#include "ea/nsga_config.h"
#include "ea/operators.h"
#include "ea/problem.h"
#include "ea/reference_points.h"

// Tabu-search repair operator (paper Figs. 5-6).
#include "tabu/repair.h"
#include "tabu/tabu_list.h"

// Allocation algorithms.
#include "algo/allocator.h"
#include "algo/cp_allocator.h"
#include "algo/cp_repair.h"
#include "algo/filtering.h"
#include "algo/heuristics.h"
#include "algo/ideal_point.h"
#include "algo/metrics.h"
#include "algo/nsga_allocators.h"
#include "algo/registry.h"
#include "algo/round_robin.h"

// Cyclic time-window simulation.
#include "sim/fleet.h"
#include "sim/reconfiguration_plan.h"
#include "sim/simulator.h"

// Scenario / result files + the request DSL.
#include "io/json.h"
#include "io/request_dsl.h"
#include "io/serialize.h"
