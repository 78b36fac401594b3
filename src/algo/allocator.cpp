#include "algo/allocator.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/expect.h"
#include "model/constraint_checker.h"
#include "model/placement_state.h"

namespace iaas {

Placement sanitize_placement(const Instance& instance, const Placement& raw,
                             std::shared_ptr<const StateTables> tables) {
  IAAS_EXPECT(raw.vm_count() == instance.n(),
              "placement size mismatch with instance");
  ConstraintChecker checker(instance);
  Placement placement = raw;

  // Drop assignments to out-of-range servers outright (defensive; EA
  // genes are clamped but external callers may feed anything).
  for (std::size_t k = 0; k < instance.n(); ++k) {
    const std::int32_t j = placement.server_of(k);
    if (j != Placement::kRejected &&
        (j < 0 || static_cast<std::size_t>(j) >= instance.m())) {
      placement.reject(k);
    }
  }

  // 1. Relationship groups: thin each violated group to a legal subset.
  for (const PlacementConstraint& c : instance.requests.constraints) {
    if (checker.relation_satisfied(c, placement)) {
      continue;
    }
    switch (c.kind) {
      case RelationKind::kSameServer:
      case RelationKind::kSameDatacenter: {
        // Keep the majority server/datacenter; reject the stragglers.
        std::vector<std::int32_t> slots;
        for (std::uint32_t k : c.vms) {
          if (!placement.is_assigned(k)) {
            continue;
          }
          const auto j = static_cast<std::size_t>(placement.server_of(k));
          slots.push_back(c.kind == RelationKind::kSameServer
                              ? placement.server_of(k)
                              : static_cast<std::int32_t>(
                                    instance.infra.datacenter_of(j)));
        }
        // A violated group has at least two assigned members, so the first
        // slot always replaces this initial value.
        std::int32_t majority = Placement::kRejected;
        std::size_t best_count = 0;
        for (std::int32_t s : slots) {
          const auto count = static_cast<std::size_t>(
              std::count(slots.begin(), slots.end(), s));
          if (count > best_count) {
            best_count = count;
            majority = s;
          }
        }
        for (std::uint32_t k : c.vms) {
          if (!placement.is_assigned(k)) {
            continue;
          }
          const auto j = static_cast<std::size_t>(placement.server_of(k));
          const std::int32_t slot =
              c.kind == RelationKind::kSameServer
                  ? placement.server_of(k)
                  : static_cast<std::int32_t>(instance.infra.datacenter_of(j));
          if (slot != majority) {
            placement.reject(k);
          }
        }
        break;
      }
      case RelationKind::kDifferentServers:
      case RelationKind::kDifferentDatacenters: {
        std::vector<std::int32_t> taken;
        for (std::uint32_t k : c.vms) {
          if (!placement.is_assigned(k)) {
            continue;
          }
          const auto j = static_cast<std::size_t>(placement.server_of(k));
          const std::int32_t slot =
              c.kind == RelationKind::kDifferentServers
                  ? placement.server_of(k)
                  : static_cast<std::int32_t>(instance.infra.datacenter_of(j));
          if (std::find(taken.begin(), taken.end(), slot) != taken.end()) {
            placement.reject(k);  // duplicate occupant
          } else {
            taken.push_back(slot);
          }
        }
        break;
      }
    }
  }

  // 2. Capacity: overloaded servers shed their largest VMs first.  The
  // rebuild sums the surviving demand in VM order, the order the
  // kCapacityEps comparisons below must see.
  PlacementState state(instance, {}, StateTracking::kViolationsOnly,
                       std::move(tables));
  state.rebuild(placement);
  for (std::size_t j = 0; j < instance.m(); ++j) {
    if (!state.server_overloaded(j)) {
      continue;
    }
    // VMs on j sorted by largest relative demand — shedding big ones
    // first rejects the fewest requests.
    const Server& server = instance.infra.server(j);
    const auto members = state.vms_on(j);
    std::vector<std::uint32_t> occupants(members.begin(), members.end());
    auto relative_demand = [&](std::uint32_t k) {
      double worst = 0.0;
      for (std::size_t l = 0; l < instance.h(); ++l) {
        worst = std::max(worst, instance.requests.vms[k].demand[l] /
                                    server.effective_capacity(l));
      }
      return worst;
    };
    std::stable_sort(occupants.begin(), occupants.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return relative_demand(a) > relative_demand(b);
                     });
    for (std::uint32_t k : occupants) {
      if (!state.server_overloaded(j)) {
        break;
      }
      state.apply_move(k, Placement::kRejected);
    }
  }

  IAAS_DEBUG_EXPECT(
      ConstraintChecker(instance).check(state.placement()).feasible(),
      "sanitized placement must be feasible");
  return state.placement();
}

AllocationResult Allocator::finalize(
    const Instance& instance, std::string algorithm, Placement raw,
    double wall_seconds, std::size_t evaluations,
    std::shared_ptr<const StateTables> tables) {
  AllocationResult result;
  result.algorithm = std::move(algorithm);
  result.vm_count = instance.n();
  result.wall_seconds = wall_seconds;
  result.evaluations = evaluations;

  ConstraintChecker checker(instance);
  result.raw_violations = checker.check(raw);
  result.raw_placement = std::move(raw);

  // One SoA flattening serves the sanitizer's capacity state and the
  // scoring state.
  if (!tables) {
    tables = std::make_shared<const StateTables>(instance);
  }
  result.placement =
      sanitize_placement(instance, result.raw_placement, tables);
  result.rejected = result.placement.rejected_count();

  PlacementState state(instance, {}, StateTracking::kFull, tables);
  state.rebuild(result.placement);
  result.objectives = state.objectives();
  return result;
}

}  // namespace iaas
