#include "algo/cp_allocator.h"

#include "common/stopwatch.h"

namespace iaas {

AllocationResult CpAllocator::allocate(const Instance& instance,
                                       std::uint64_t /*seed*/) {
  Stopwatch timer;
  Placement placement =
      CpSolver(instance, solver_options_).solve(&last_stats_);
  return finalize(instance, name(), std::move(placement),
                  timer.elapsed_seconds(), 0);
}

}  // namespace iaas
