// Fairness / welfare metrics over one allocation outcome.
//
// The paper's objectives (Eqs. 22/23/26) judge a placement by provider
// and consumer cost; they say nothing about how service is *divided*
// between consumers, which is exactly what strategic misreporting
// distorts.  This layer measures the division:
//
//   share_c   = sum over c's placed VMs of the VM's dominant fleet
//               fraction  max_l actual_demand_kl / P^eff_l(total)
//   welfare_c = share_c / requested_c       (served fraction of need)
//   Jain      = (sum share)^2 / (N * sum share^2)   in [1/N, 1]
//   envy      = mean_c max(0, max_d welfare_d - welfare_c)
//   util_eff  = served actual size / served reported size  (inflation
//               shrinks this below 1: capacity is booked but unused)
//   energy    = sum over powered servers of
//               10 * P_j,cpu * (0.4 + 0.6 * min(1, load_j,cpu))
//               (a linear power model: 10 W per unit of CPU capacity at
//               full load, 40% of that when idle; a server hosting no VM
//               is off and draws nothing)
//
// "Actual" demand is VmRequest::actual_demand() — the honest vector a
// strategic consumer hid behind an inflated report.  All sums iterate
// in consumer-id order, so results are deterministic bit-for-bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/instance.h"
#include "model/placement.h"

namespace iaas {

// Jain's fairness index over non-negative shares: 1 for a uniform
// vector, 1/N when one consumer holds everything.  Defined as 1 for
// empty or all-zero input (perfect equality of nothing).
[[nodiscard]] double jain_index(std::span<const double> shares);

// One consumer's slice of a window outcome.
struct ConsumerShare {
  std::uint32_t consumer = 0;
  bool strategic = false;  // any of its VMs carried a misreported demand
  double requested = 0.0;  // dominant-size total over all its VMs
  double served = 0.0;     // dominant-size total over its placed VMs
  double welfare = 0.0;    // served / requested (1 when nothing requested)
};

struct FairnessReport {
  std::vector<ConsumerShare> consumers;  // ascending consumer id
  std::uint32_t strategic_consumers = 0;
  std::uint32_t strategic_vms = 0;
  double jain = 1.0;
  double envy = 0.0;
  double utilization_efficiency = 1.0;
  double honest_welfare = 0.0;     // mean welfare of honest consumers
  double strategic_welfare = 0.0;  // mean welfare of strategic consumers
  double energy_cost = 0.0;
};

// Scores `placement` against `instance`.  Rebuilds one PlacementState
// internally for the energy term — call once per window, not per move.
[[nodiscard]] FairnessReport compute_fairness(const Instance& instance,
                                              const Placement& placement);

}  // namespace iaas
