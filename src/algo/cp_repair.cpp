#include "algo/cp_repair.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/expect.h"
#include "model/vm_order.h"

namespace iaas {

CpRepair::CpRepair(const Instance& instance, std::uint64_t max_backtracks,
                   std::shared_ptr<const StateTables> tables)
    : instance_(&instance),
      max_backtracks_(max_backtracks),
      tables_(tables ? std::move(tables)
                     : std::make_shared<const StateTables>(instance)),
      usage_order_(instance.m()) {
  std::iota(usage_order_.begin(), usage_order_.end(), 0u);
  std::stable_sort(usage_order_.begin(), usage_order_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return instance.infra.server(a).usage_cost <
                            instance.infra.server(b).usage_cost;
                   });
}

bool CpRepair::dfs(PlacementState& state,
                   const std::vector<std::uint32_t>& order,
                   std::size_t depth, std::uint64_t& backtracks,
                   std::vector<std::uint32_t>& candidates) const {
  if (depth == order.size()) {
    return true;
  }
  const std::uint32_t k = order[depth];

  // Value order: cheapest usage cost first (static — the mini-solve has
  // no branch-and-bound, it only restores feasibility), over the servers
  // k's relations leave open.  Every candidate is checked before any is
  // tried: a tried move reverts its server's used row to within an ulp,
  // not bit for bit.
  const ServerRange open = state.open_servers(k);
  const std::size_t base = candidates.size();
  if (!open.empty()) {
    for (std::uint32_t j : usage_order_) {
      if (open.contains(j) && state.is_valid_allocation(k, j)) {
        candidates.push_back(j);
      }
    }
  }
  const std::size_t end = candidates.size();

  for (std::size_t i = base; i < end; ++i) {
    state.apply_move(k, static_cast<std::int32_t>(candidates[i]));
    if (dfs(state, order, depth + 1, backtracks, candidates)) {
      return true;
    }
    state.revert();
    if (++backtracks >= max_backtracks_) {
      return false;
    }
  }
  candidates.resize(base);
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
  for (std::size_t j = state.next_overloaded(0); j < inst.m();
       j = state.next_overloaded(j + 1)) {
    for (std::uint32_t k : state.vms_on(j)) {
      bad[k] = 1;
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
  std::vector<std::uint32_t> candidates;
  if (dfs(state, order, 0, backtracks, candidates)) {
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
