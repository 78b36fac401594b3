// Constraint-programming solver over the allocation model — the
// substitute for the paper's Choco baseline (DESIGN.md §4).
//
// Complete depth-first search over a PlacementState, extended with
// apply_move and undone with revert, with:
//   * forward checking through PlacementState::is_valid_allocation
//     (capacity + affinity/anti-affinity against assigned peers);
//   * first-fail variable ordering (same-server group members first, then
//     largest relative demand);
//   * cheapest-incremental-cost value ordering;
//   * branch-and-bound on the linear cost (usage + exploitation +
//     migration, the ILP objective of LinModel) with a per-VM lower bound;
//   * a wall-clock deadline and a backtrack budget — the paper requires
//     answers "in a very short timeframe (<2mn)".
//
// When the search cannot complete within budget, the solver returns its
// best incumbent; if no complete feasible assignment was ever reached it
// falls back to greedy first-fit and *rejects* the requests it cannot
// place — mirroring the paper's observation that the constraint-
// programming baseline "rejects a greater number of demands".
#pragma once

#include <cstdint>
#include <limits>

#include "common/stopwatch.h"
#include "model/instance.h"
#include "model/placement.h"

namespace iaas {

struct CpSolverOptions {
  double time_limit_seconds = 120.0;
  std::uint64_t max_backtracks = 200000;
};

struct CpStats {
  std::uint64_t nodes = 0;
  std::uint64_t backtracks = 0;
  bool found_complete = false;  // a placement assigning every VM
  bool proved_optimal = false;  // search space exhausted under pruning
  bool timed_out = false;
  double best_cost = std::numeric_limits<double>::infinity();
};

class CpSolver {
 public:
  CpSolver(const Instance& instance, CpSolverOptions options = {});

  // Solve; never fails — worst case returns the greedy fallback with
  // rejections.  Stats are optional.
  Placement solve(CpStats* stats = nullptr);

  // The greedy first-fit-by-cost fallback, exposed for tests and for the
  // Round-Robin comparison's cost ordering.
  Placement greedy_with_rejection() const;

 private:
  struct SearchContext;
  bool dfs(SearchContext& ctx, std::size_t depth);

  // Linear incremental cost of hosting VM k on server j given which
  // servers are already in use.
  [[nodiscard]] double incremental_cost(std::size_t k, std::size_t j,
                                        bool server_used) const;

  const Instance* instance_;
  CpSolverOptions options_;
  std::vector<std::uint32_t> vm_order_;      // first-fail ordering
  std::vector<double> remaining_lb_;         // suffix lower bounds over vm_order_
};

}  // namespace iaas
