// Constraint-solver repair — the paper's "NSGA with constraint solver"
// variant: instead of the tabu walk, invalid individuals are handed to a
// small constraint solve.  The VMs participating in violations are
// unassigned and re-placed by a backtracking search with forward
// checking (a scoped-down CpSolver).  Heavier than the tabu repair, which
// is exactly why the paper finds this variant does not scale (Fig. 8).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "model/instance.h"
#include "model/placement_state.h"

namespace iaas {

class CpRepair {
 public:
  // `max_backtracks` bounds each repair() call's search.  `tables` shares
  // the instance's immutable SoA flattening with the states repair()
  // builds (and with anything else built against the same instance); when
  // null the repairer builds its own.
  explicit CpRepair(const Instance& instance,
                    std::uint64_t max_backtracks = 500,
                    std::shared_ptr<const StateTables> tables = nullptr);

  // Repairs genes in place; returns remaining violations (0 when the
  // mini-solve succeeded).  When the search fails, the genes are left
  // untouched, so they stay fully assigned.  Safe to call concurrently:
  // each call searches its own PlacementState over the shared, immutable
  // tables.
  std::uint32_t repair(std::vector<std::int32_t>& genes, Rng& rng) const;

  // Same search on a caller-owned PlacementState already rebuilt to the
  // placement under repair (any tracking mode).  The state closes with a
  // rebuild of the repaired genes, or of the original genes when the
  // search fails, so its accumulators are exactly those of a fresh
  // rebuild: with full tracking they double as the evaluation of the
  // result (DESIGN.md §8).  Draws and genes are those of repair().
  std::uint32_t repair_state(PlacementState& state, Rng& rng) const;

 private:
  // `candidates` is a stack: each depth appends its valid servers and
  // drops them when its subtree is spent.
  bool dfs(PlacementState& state, const std::vector<std::uint32_t>& order,
           std::size_t depth, std::uint64_t& backtracks,
           std::vector<std::uint32_t>& candidates) const;

  const Instance* instance_;
  std::uint64_t max_backtracks_;
  std::shared_ptr<const StateTables> tables_;
  // Every server by ascending usage cost, ties by index (a stable sort):
  // the value order, which each node filters to its valid servers.
  std::vector<std::uint32_t> usage_order_;
};

}  // namespace iaas
