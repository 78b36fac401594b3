#include "model/constraint_checker.h"

#include "common/matrix.h"

namespace iaas {
namespace {

// The relation checks compare the assigned members in place, with no
// temporary buffer: they run for every constraint of every moved VM.
// Rejected members cannot violate a relation, so they are skipped.

// True when every assigned member's server maps to the same key.
template <class Key>
bool assigned_keys_equal(const std::vector<std::uint32_t>& vms,
                         const Placement& placement, Key key) {
  bool seen = false;
  decltype(key(0)) first{};
  for (std::uint32_t k : vms) {
    if (!placement.is_assigned(k)) {
      continue;
    }
    const auto here = key(placement.server_of(k));
    if (!seen) {
      seen = true;
      first = here;
    } else if (here != first) {
      return false;
    }
  }
  return true;
}

// True when no two assigned members' servers map to the same key.
template <class Key>
bool assigned_keys_distinct(const std::vector<std::uint32_t>& vms,
                            const Placement& placement, Key key) {
  for (std::size_t i = 1; i < vms.size(); ++i) {
    if (!placement.is_assigned(vms[i])) {
      continue;
    }
    const auto here = key(placement.server_of(vms[i]));
    for (std::size_t p = 0; p < i; ++p) {
      if (placement.is_assigned(vms[p]) &&
          key(placement.server_of(vms[p])) == here) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

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
    for (std::size_t l = 0; l < h; ++l) {
      if (used(j, l) > server.effective_capacity(l) + kCapacityEps) {
        ++report.capacity_violations;
      }
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
  const Infrastructure& infra = instance_->infra;
  const auto server = [](std::int32_t s) { return s; };
  const auto datacenter = [&infra](std::int32_t s) {
    return infra.datacenter_of(static_cast<std::size_t>(s));
  };
  switch (c.kind) {
    case RelationKind::kSameServer:
      return assigned_keys_equal(c.vms, placement, server);
    case RelationKind::kSameDatacenter:
      return assigned_keys_equal(c.vms, placement, datacenter);
    case RelationKind::kDifferentServers:
      return assigned_keys_distinct(c.vms, placement, server);
    case RelationKind::kDifferentDatacenters:
      return assigned_keys_distinct(c.vms, placement, datacenter);
  }
  return true;
}

}  // namespace iaas
