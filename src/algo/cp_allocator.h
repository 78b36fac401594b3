// Constraint-programming baseline — the paper solves the linear model
// with the Choco solver; this allocator drives our CpSolver substitute
// (branch-and-bound with forward checking, DESIGN.md §4).
#pragma once

#include "algo/allocator.h"
#include "lp/cp_solver.h"

namespace iaas {

class CpAllocator : public Allocator {
 public:
  explicit CpAllocator(CpSolverOptions solver_options = {})
      : solver_options_(solver_options) {}

  [[nodiscard]] std::string name() const override {
    return "ConstraintProgramming";
  }

  AllocationResult allocate(const Instance& instance,
                            std::uint64_t seed) override;

  [[nodiscard]] const CpStats& last_stats() const { return last_stats_; }

 private:
  CpSolverOptions solver_options_;
  CpStats last_stats_;
};

}  // namespace iaas
