#include "algo/heuristics.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/stopwatch.h"
#include "model/placement_state.h"
#include "model/vm_order.h"

namespace iaas {

AllocationResult FirstFitDecreasingAllocator::allocate(
    const Instance& instance, std::uint64_t /*seed*/) {
  Stopwatch timer;
  PlacementState state(instance, {}, StateTracking::kViolationsOnly);

  const std::vector<double> size = relative_sizes(instance);
  std::vector<std::uint32_t> order(instance.n());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(
      order.begin(), order.end(),
      [&](std::uint32_t a, std::uint32_t b) { return size[a] > size[b]; });

  for (std::uint32_t k : order) {
    for (std::size_t j = 0; j < instance.m(); ++j) {
      if (state.is_valid_allocation(k, j)) {
        state.apply_move(k, static_cast<std::int32_t>(j));
        break;
      }
    }
  }
  return finalize(instance, name(), state.placement(),
                  timer.elapsed_seconds(), 0);
}

AllocationResult BestFitAllocator::allocate(const Instance& instance,
                                            std::uint64_t /*seed*/) {
  Stopwatch timer;
  PlacementState state(instance, {}, StateTracking::kViolationsOnly);

  for (std::size_t k = 0; k < instance.n(); ++k) {
    const VmRequest& vm = instance.requests.vms[k];
    double best_slack = std::numeric_limits<double>::infinity();
    std::int32_t best_server = Placement::kRejected;
    for (std::size_t j = 0; j < instance.m(); ++j) {
      if (!state.is_valid_allocation(k, j)) {
        continue;
      }
      // Slack: the loosest attribute after placement; tightest fit wins.
      const Server& server = instance.infra.server(j);
      double slack = 0.0;
      for (std::size_t l = 0; l < instance.h(); ++l) {
        const double remaining = server.effective_capacity(l) -
                                 state.used()(j, l) - vm.demand[l];
        slack = std::max(slack, remaining / server.effective_capacity(l));
      }
      if (slack < best_slack) {
        best_slack = slack;
        best_server = static_cast<std::int32_t>(j);
      }
    }
    if (best_server != Placement::kRejected) {
      state.apply_move(k, best_server);
    }
  }
  return finalize(instance, name(), state.placement(),
                  timer.elapsed_seconds(), 0);
}

}  // namespace iaas
