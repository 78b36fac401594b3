#include "algo/filtering.h"

#include <algorithm>
#include <limits>

#include "common/stopwatch.h"
#include "model/placement_state.h"

namespace iaas {

AllocationResult FilteringAllocator::allocate(const Instance& instance,
                                              std::uint64_t /*seed*/) {
  Stopwatch timer;
  PlacementState state(instance, {}, StateTracking::kViolationsOnly);
  const Matrix<double>& used = state.used();

  for (std::size_t k = 0; k < instance.n(); ++k) {
    const VmRequest& vm = instance.requests.vms[k];
    double best_score = std::numeric_limits<double>::infinity();
    std::int32_t best_server = Placement::kRejected;
    for (std::size_t j = 0; j < instance.m(); ++j) {
      const Server& server = instance.infra.server(j);
      // Filter stage: capacity only — relationships are invisible here.
      bool fits = true;
      double worst_load = 0.0;
      for (std::size_t l = 0; l < instance.h(); ++l) {
        const double after = used(j, l) + vm.demand[l];
        if (after > server.effective_capacity(l) + 1e-9) {
          fits = false;
          break;
        }
        worst_load = std::max(worst_load,
                              after / server.effective_capacity(l));
      }
      if (!fits) {
        continue;
      }
      // Weigh stage: least-loaded host wins (load balancing).
      if (worst_load < best_score) {
        best_score = worst_load;
        best_server = static_cast<std::int32_t>(j);
      }
    }
    if (best_server != Placement::kRejected) {
      state.apply_move(k, best_server);
    }
  }

  return finalize(instance, name(), state.placement(),
                  timer.elapsed_seconds(), 0, options_);
}

}  // namespace iaas
