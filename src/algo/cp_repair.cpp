#include "algo/cp_repair.h"

#include <algorithm>

#include "common/expect.h"
#include "model/placement.h"
#include "model/vm_order.h"

namespace iaas {

CpRepair::CpRepair(const Instance& instance, std::uint64_t max_backtracks)
    : instance_(&instance),
      max_backtracks_(max_backtracks),
      checker_(instance) {}

bool CpRepair::dfs(Placement& placement, Matrix<double>& used,
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
    if (checker_.is_valid_allocation(placement, used, k, j)) {
      servers.push_back(static_cast<std::uint32_t>(j));
    }
  }
  std::stable_sort(servers.begin(), servers.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return inst.infra.server(a).usage_cost <
                            inst.infra.server(b).usage_cost;
                   });

  for (std::uint32_t j : servers) {
    placement.assign(k, static_cast<std::int32_t>(j));
    for (std::size_t l = 0; l < inst.h(); ++l) {
      used(j, l) += inst.requests.vms[k].demand[l];
    }
    if (dfs(placement, used, order, depth + 1, backtracks)) {
      return true;
    }
    for (std::size_t l = 0; l < inst.h(); ++l) {
      used(j, l) -= inst.requests.vms[k].demand[l];
    }
    placement.reject(k);
    if (++backtracks >= max_backtracks_) {
      return false;
    }
  }
  return false;
}

std::uint32_t CpRepair::repair(std::vector<std::int32_t>& genes, Rng& rng) {
  const Instance& inst = *instance_;
  IAAS_EXPECT(genes.size() == inst.n(), "gene count mismatch with instance");

  Placement placement(genes);

  // Identify the VMs involved in violations.
  const ViolationReport report = checker_.check(placement);
  if (report.feasible()) {
    return 0;
  }
  std::vector<char> bad(inst.n(), 0);
  for (std::uint32_t j : report.overloaded_servers) {
    for (std::size_t k = 0; k < inst.n(); ++k) {
      if (placement.is_assigned(k) &&
          placement.server_of(k) == static_cast<std::int32_t>(j)) {
        bad[k] = 1;
      }
    }
  }
  for (const PlacementConstraint& c : inst.requests.constraints) {
    if (!checker_.relation_satisfied(c, placement)) {
      for (std::uint32_t k : c.vms) {
        bad[k] = 1;
      }
    }
  }

  // Unassign the offenders, then re-place them by backtracking search.
  // Order: shuffled for diversity, but same-server group members kept
  // adjacent.
  std::vector<std::uint32_t> order;
  for (std::size_t k = 0; k < inst.n(); ++k) {
    if (bad[k] != 0) {
      order.push_back(static_cast<std::uint32_t>(k));
      placement.reject(k);
    }
  }
  rng.shuffle(order);
  order = keep_same_server_groups_adjacent(inst.requests, order);

  Matrix<double> used;
  checker_.compute_used(placement, used);

  std::uint64_t backtracks = 0;
  if (!dfs(placement, used, order, 0, backtracks)) {
    // A failed search (budget spent or tree exhausted) has undone every
    // assignment on its way out: the genes still hold the original
    // placement, whose violations were counted above.
    return report.total();
  }
  genes = placement.genes();
  return checker_.check(placement).total();
}

}  // namespace iaas
