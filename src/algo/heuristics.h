// Classic bin-packing heuristics as additional baselines (extensions
// beyond the paper's §IV set).  The allocation problem is
// multidimensional bin packing (the paper's NP-hardness argument cites
// exactly that), so First-Fit-Decreasing and Best-Fit are the natural
// yardsticks.  Both are constraint-aware: they only consider valid
// allocations (capacity + relationships), rejecting what cannot be
// placed — like Round Robin, they never violate.
#pragma once

#include "algo/allocator.h"

namespace iaas {

// First-Fit Decreasing: VMs sorted by largest relative demand first,
// each takes the lowest-indexed server where the allocation is valid.
class FirstFitDecreasingAllocator : public Allocator {
 public:
  [[nodiscard]] std::string name() const override {
    return "FirstFitDecreasing";
  }

  AllocationResult allocate(const Instance& instance,
                            std::uint64_t seed) override;
};

// Best-Fit: each VM (in request order) goes to the valid server whose
// residual capacity after placement is tightest — the strongest
// consolidation pressure among the one-pass heuristics.
class BestFitAllocator : public Allocator {
 public:
  [[nodiscard]] std::string name() const override { return "BestFit"; }

  AllocationResult allocate(const Instance& instance,
                            std::uint64_t seed) override;
};

}  // namespace iaas
