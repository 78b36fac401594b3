#include "model/assignment_units.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace iaas {
namespace {

// Union-find over VM indices with path halving.
std::uint32_t find_root(std::vector<std::uint32_t>& parent, std::uint32_t v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];
    v = parent[v];
  }
  return v;
}

}  // namespace

std::vector<std::vector<std::uint32_t>> assignment_units(
    const RequestSet& requests) {
  const auto n = static_cast<std::uint32_t>(requests.vm_count());
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0U);
  for (const PlacementConstraint& c : requests.constraints) {
    for (std::size_t i = 1; i < c.vms.size(); ++i) {
      const std::uint32_t a = find_root(parent, c.vms[0]);
      const std::uint32_t b = find_root(parent, c.vms[i]);
      if (a != b) {
        parent[std::max(a, b)] = std::min(a, b);
      }
    }
  }
  // Roots in ascending order = units ordered by smallest member.
  std::vector<std::vector<std::uint32_t>> units;
  std::vector<std::int32_t> unit_of(n, -1);
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t root = find_root(parent, v);
    if (unit_of[root] < 0) {
      unit_of[root] = static_cast<std::int32_t>(units.size());
      units.emplace_back();
    }
    units[static_cast<std::size_t>(unit_of[root])].push_back(v);
  }
  return units;
}

std::vector<RequestSet> split_units(RequestSet batch) {
  const std::vector<std::vector<std::uint32_t>> members =
      assignment_units(batch);
  std::vector<RequestSet> units(members.size());
  std::vector<std::size_t> unit_of(batch.vm_count());
  std::vector<std::uint32_t> local_of(batch.vm_count());
  for (std::size_t u = 0; u < members.size(); ++u) {
    for (const std::uint32_t k : members[u]) {
      unit_of[k] = u;
      local_of[k] = static_cast<std::uint32_t>(units[u].vms.size());
      units[u].vms.push_back(std::move(batch.vms[k]));
    }
  }
  for (PlacementConstraint& c : batch.constraints) {
    RequestSet& unit = units[unit_of[c.vms.front()]];
    for (std::uint32_t& k : c.vms) {
      k = local_of[k];
    }
    unit.constraints.push_back(std::move(c));
  }
  return units;
}

}  // namespace iaas
