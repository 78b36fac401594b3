// Constraint verification for a placement against an instance — the
// evaluation-side counterpart of the paper's Eqs. 16-21 and the source of
// the "violated constraints" metric of Fig. 10.
//
// Checked constraints:
//   * capacity  (Eq. 16): per (server, attribute), allocated demand must
//     not exceed the effective capacity P_jl * F_jl;
//   * relationships (Eqs. 18-21): each affinity / anti-affinity group must
//     hold among its *assigned* members (a rejected VM cannot violate a
//     relationship — rejection is penalised by the rejection-rate metric,
//     not double-counted here).
//
// Assignment (Eq. 17) is structural: the Placement encoding maps each VM
// to at most one server, so "exactly one" reduces to "not rejected",
// reported as rejected_vms.
#pragma once

#include <cstdint>
#include <vector>

#include "model/instance.h"
#include "model/placement.h"

namespace iaas {

// Capacity comparisons tolerate tiny FP noise from accumulating demands;
// shared by the checker and the incremental PlacementState accumulators.
inline constexpr double kCapacityEps = 1e-9;

struct ViolationReport {
  std::uint32_t capacity_violations = 0;   // # exceeded (server, attribute)
  std::uint32_t relation_violations = 0;   // # violated constraint groups
  std::uint32_t rejected_vms = 0;          // # unassigned requests
  std::vector<std::uint32_t> overloaded_servers;  // sorted, unique

  // Total violated constraints, the Fig. 10 quantity. Rejection is not a
  // violation (a rejected request simply was not served).
  [[nodiscard]] std::uint32_t total() const {
    return capacity_violations + relation_violations;
  }
  [[nodiscard]] bool feasible() const { return total() == 0; }
};

class ConstraintChecker {
 public:
  explicit ConstraintChecker(const Instance& instance)
      : instance_(&instance) {}

  // Full report, including the list of overloaded servers (the tabu repair
  // operator's exceedingDetection, paper Fig. 5 line 2).  Sums the demand
  // from scratch, so it is the reference the incremental PlacementState
  // is tested against.  Every assigned server must exist.
  [[nodiscard]] ViolationReport check(const Placement& placement) const;

  // True when the relationship constraint `c` holds under `placement`
  // (among assigned members only).
  [[nodiscard]] bool relation_satisfied(const PlacementConstraint& c,
                                        const Placement& placement) const;

 private:
  const Instance* instance_;
};

}  // namespace iaas
