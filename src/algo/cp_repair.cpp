#include "algo/cp_repair.h"

#include <algorithm>
#include <utility>

#include "common/expect.h"
#include "model/vm_order.h"

namespace iaas {

CpRepair::CpRepair(const Instance& instance, std::uint64_t max_backtracks,
                   std::shared_ptr<const StateTables> tables)
    : instance_(&instance),
      max_backtracks_(max_backtracks),
      tables_(tables ? std::move(tables)
                     : std::make_shared<const StateTables>(instance)) {}

bool CpRepair::dfs(PlacementState& state,
                   const std::vector<std::uint32_t>& order,
                   std::size_t depth, std::uint64_t& backtracks) const {
  if (depth == order.size()) {
    return true;
  }
  const Instance& inst = *instance_;
  const std::uint32_t k = order[depth];

  // Value order: cheapest usage cost first (static — the mini-solve has
  // no branch-and-bound, it only restores feasibility).
  std::vector<std::uint32_t> servers;
  servers.reserve(inst.m());
  for (std::size_t j = 0; j < inst.m(); ++j) {
    if (state.is_valid_allocation(k, j)) {
      servers.push_back(static_cast<std::uint32_t>(j));
    }
  }
  std::stable_sort(servers.begin(), servers.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return inst.infra.server(a).usage_cost <
                            inst.infra.server(b).usage_cost;
                   });

  for (std::uint32_t j : servers) {
    state.apply_move(k, static_cast<std::int32_t>(j));
    if (dfs(state, order, depth + 1, backtracks)) {
      return true;
    }
    state.revert();
    if (++backtracks >= max_backtracks_) {
      return false;
    }
  }
  return false;
}

std::uint32_t CpRepair::repair(std::vector<std::int32_t>& genes,
                               Rng& rng) const {
  IAAS_EXPECT(genes.size() == instance_->n(),
              "gene count mismatch with instance");
  PlacementState state(*instance_, {}, StateTracking::kViolationsOnly,
                       tables_);
  state.rebuild(genes);
  const std::uint32_t remaining = repair_state(state, rng);
  genes = state.placement().genes();
  return remaining;
}

std::uint32_t CpRepair::repair_state(PlacementState& state, Rng& rng) const {
  const Instance& inst = *instance_;
  IAAS_EXPECT(&state.instance() == instance_,
              "state built against a different instance");
  if (state.total_violations() == 0) {
    return 0;
  }

  // The VMs involved in violations: every VM on an overloaded server and
  // every member of a violated relationship group.
  std::vector<char> bad(inst.n(), 0);
  for (std::size_t j = 0; j < inst.m(); ++j) {
    if (state.server_overloaded(j)) {
      for (std::uint32_t k : state.vms_on(j)) {
        bad[k] = 1;
      }
    }
  }
  const auto& constraints = inst.requests.constraints;
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    if (!state.relation_satisfied(c)) {
      for (std::uint32_t k : constraints[c].vms) {
        bad[k] = 1;
      }
    }
  }

  // Unassign the offenders, then re-place them by backtracking search.
  // Order: shuffled for diversity, but same-server group members kept
  // adjacent.
  std::vector<std::int32_t> genes = state.placement().genes();
  std::vector<std::uint32_t> order;
  std::vector<std::int32_t> kept = genes;
  for (std::size_t k = 0; k < inst.n(); ++k) {
    if (bad[k] != 0) {
      order.push_back(static_cast<std::uint32_t>(k));
      kept[k] = Placement::kRejected;
    }
  }
  rng.shuffle(order);
  order = keep_same_server_groups_adjacent(inst.requests, order);
  // A rebuild, not a chain of detaches: the search's capacity checks
  // must read demand summed in VM order, or a kCapacityEps comparison
  // can flip on the last bit.
  state.rebuild(kept);

  std::uint64_t backtracks = 0;
  if (dfs(state, order, 0, backtracks)) {
    genes = state.placement().genes();
  }
  // A failed search (budget spent or tree exhausted) has reverted every
  // assignment on its way out, back to `kept`: the original genes come
  // back.  Either way the closing rebuild sums every accumulator in VM
  // order (the search summed the re-placed VMs in search order), so the
  // violations it counts are ConstraintChecker's from-scratch audit.
  state.rebuild(genes);
  return state.total_violations();
}

}  // namespace iaas
