#include "model/vm_order.h"

#include <algorithm>

namespace iaas {

std::vector<double> relative_sizes(const Instance& instance) {
  std::vector<double> mean_capacity(instance.h(), 0.0);
  for (std::size_t j = 0; j < instance.m(); ++j) {
    for (std::size_t l = 0; l < instance.h(); ++l) {
      mean_capacity[l] += instance.infra.server(j).effective_capacity(l);
    }
  }
  for (double& c : mean_capacity) {
    c /= static_cast<double>(instance.m());
  }
  std::vector<double> sizes(instance.n(), 0.0);
  for (std::size_t k = 0; k < instance.n(); ++k) {
    for (std::size_t l = 0; l < instance.h(); ++l) {
      sizes[k] = std::max(
          sizes[k], instance.requests.vms[k].demand[l] / mean_capacity[l]);
    }
  }
  return sizes;
}

std::vector<std::uint32_t> keep_same_server_groups_adjacent(
    const RequestSet& requests, const std::vector<std::uint32_t>& order) {
  // 1 while a VM of `order` is not yet emitted.
  std::vector<char> pending(requests.vm_count(), 0);
  for (std::uint32_t k : order) {
    pending[k] = 1;
  }
  std::vector<std::uint32_t> grouped;
  grouped.reserve(order.size());
  for (std::uint32_t k : order) {
    if (pending[k] == 0) {
      continue;
    }
    grouped.push_back(k);
    pending[k] = 0;
    for (const PlacementConstraint& c : requests.constraints) {
      if (c.kind != RelationKind::kSameServer ||
          std::find(c.vms.begin(), c.vms.end(), k) == c.vms.end()) {
        continue;
      }
      for (std::uint32_t peer : c.vms) {
        if (pending[peer] != 0) {
          grouped.push_back(peer);
          pending[peer] = 0;
        }
      }
    }
  }
  return grouped;
}

}  // namespace iaas
