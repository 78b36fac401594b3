#include "model/constraint_checker.h"

#include <algorithm>

#include "common/matrix.h"

namespace iaas {

ViolationReport ConstraintChecker::check(const Placement& placement) const {
  const Instance& inst = *instance_;
  IAAS_EXPECT(placement.vm_count() == inst.n(),
              "placement size mismatch with instance");

  ViolationReport report;
  report.rejected_vms =
      static_cast<std::uint32_t>(placement.rejected_count());

  const std::size_t h = inst.h();
  Matrix<double> used(inst.m(), h);
  for (std::size_t k = 0; k < inst.n(); ++k) {
    if (!placement.is_assigned(k)) {
      continue;
    }
    const auto j = static_cast<std::size_t>(placement.server_of(k));
    IAAS_EXPECT(j < inst.m(), "placement assigns a VM to an unknown server");
    const VmRequest& vm = inst.requests.vms[k];
    for (std::size_t l = 0; l < h; ++l) {
      used(j, l) += vm.demand[l];
    }
  }

  for (std::size_t j = 0; j < inst.m(); ++j) {
    const Server& server = inst.infra.server(j);
    bool overloaded = false;
    for (std::size_t l = 0; l < h; ++l) {
      if (used(j, l) > server.effective_capacity(l) + kCapacityEps) {
        ++report.capacity_violations;
        overloaded = true;
      }
    }
    if (overloaded) {
      report.overloaded_servers.push_back(static_cast<std::uint32_t>(j));
    }
  }

  for (const PlacementConstraint& c : inst.requests.constraints) {
    if (!relation_satisfied(c, placement)) {
      ++report.relation_violations;
    }
  }
  return report;
}

bool ConstraintChecker::relation_satisfied(const PlacementConstraint& c,
                                           const Placement& placement) const {
  const Instance& inst = *instance_;
  // Collect the assigned members; groups with < 2 placed members cannot be
  // violated.
  std::vector<std::int32_t> servers;
  servers.reserve(c.vms.size());
  for (std::uint32_t k : c.vms) {
    if (placement.is_assigned(k)) {
      servers.push_back(placement.server_of(k));
    }
  }
  if (servers.size() < 2) {
    return true;
  }

  switch (c.kind) {
    case RelationKind::kSameServer:
      return std::all_of(servers.begin(), servers.end(),
                         [&](std::int32_t s) { return s == servers[0]; });
    case RelationKind::kSameDatacenter: {
      const std::uint32_t dc0 =
          inst.infra.datacenter_of(static_cast<std::size_t>(servers[0]));
      return std::all_of(servers.begin(), servers.end(), [&](std::int32_t s) {
        return inst.infra.datacenter_of(static_cast<std::size_t>(s)) == dc0;
      });
    }
    case RelationKind::kDifferentServers: {
      std::vector<std::int32_t> sorted = servers;
      std::sort(sorted.begin(), sorted.end());
      return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
    }
    case RelationKind::kDifferentDatacenters: {
      std::vector<std::uint32_t> dcs;
      dcs.reserve(servers.size());
      for (std::int32_t s : servers) {
        dcs.push_back(inst.infra.datacenter_of(static_cast<std::size_t>(s)));
      }
      std::sort(dcs.begin(), dcs.end());
      return std::adjacent_find(dcs.begin(), dcs.end()) == dcs.end();
    }
  }
  return true;
}

}  // namespace iaas
