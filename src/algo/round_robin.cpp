#include "algo/round_robin.h"

#include <algorithm>
#include <numeric>

#include "common/stopwatch.h"
#include "model/placement_state.h"

namespace iaas {

AllocationResult RoundRobinAllocator::allocate(const Instance& instance,
                                               std::uint64_t /*seed*/) {
  Stopwatch timer;
  PlacementState state(instance, {}, StateTracking::kViolationsOnly);

  // Affinity sort: VMs of one relationship group back-to-back, groups
  // first, unconstrained VMs after.
  std::vector<std::uint32_t> order;
  order.reserve(instance.n());
  std::vector<char> queued(instance.n(), 0);
  for (const PlacementConstraint& c : instance.requests.constraints) {
    for (std::uint32_t k : c.vms) {
      if (queued[k] == 0) {
        order.push_back(k);
        queued[k] = 1;
      }
    }
  }
  for (std::size_t k = 0; k < instance.n(); ++k) {
    if (queued[k] == 0) {
      order.push_back(static_cast<std::uint32_t>(k));
    }
  }

  std::size_t cursor = 0;
  for (std::uint32_t k : order) {
    for (std::size_t off = 0; off < instance.m(); ++off) {
      const std::size_t j = (cursor + off) % instance.m();
      if (state.is_valid_allocation(k, j)) {
        state.apply_move(k, static_cast<std::int32_t>(j));
        cursor = (j + 1) % instance.m();  // keep rotating
        break;
      }
    }
  }

  return finalize(instance, name(), state.placement(),
                  timer.elapsed_seconds(), 0);
}

}  // namespace iaas
