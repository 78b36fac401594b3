// Value types of the paper's global objective (Eq. 15), whose three terms
// are
//
//   1. usage & operating cost  (Eq. 22): exploitation cost E_j of the
//      servers put to use plus the usage cost U_j for each hosted VM;
//   2. downtime cost           (Eq. 23): SLA penalty C^U_k whenever the
//      QoS delivered to VM k falls below its guarantee C^Q_k, using the
//      load->QoS decay of Eq. 24;
//   3. migration cost          (Eq. 26): M_k for every VM the new plan
//      moves relative to the previous window's placement.
//
// Interpretation notes (documented deviations from the paper's literal
// formulas, see DESIGN.md §6):
//   * Eq. 22 literally sums E_j per hosted VM; we charge E_j once per
//     *used* server by default — that is what makes consolidation pay, a
//     stated goal of the paper ("reduce the number of servers").  The
//     literal per-VM reading is ObjectiveOptions::opex_per_vm, which only
//     tests set.
//   * Eq. 23 literally scales with Q_jl/C^Q_k, which would *reward* QoS
//     degradation; we charge C^U_k * (1 - q/C^Q_k) for q below the
//     guarantee (penalty proportional to the shortfall) and zero above.
//
// The aggregate Z uses equal weights, as the paper does "without loss of
// generality".  The formulas are implemented once, in PlacementState
// (model/placement_state.h): a full rebuild scores a placement, and
// try_move scores one relocation.
#pragma once

#include <array>
#include <cstddef>

#include "common/fields.h"

namespace iaas {

struct ObjectiveVector {
  static constexpr std::size_t kCount = 3;

  double usage_cost = 0.0;      // term 1, Eq. 22
  double downtime_cost = 0.0;   // term 2, Eq. 23
  double migration_cost = 0.0;  // term 3, Eq. 26

  [[nodiscard]] double aggregate() const {
    return usage_cost + downtime_cost + migration_cost;
  }
  [[nodiscard]] std::array<double, kCount> as_array() const {
    return {usage_cost, downtime_cost, migration_cost};
  }
};

// Traced as a positional [usage, downtime, migration] triple.
template <fields::Of<ObjectiveVector> Self, typename V>
void visit_fields(Self& o, V& v) {
  using enum fields::Tag;
  v.leaf("usage_cost", o.usage_cost, kDeterministic);
  v.leaf("downtime_cost", o.downtime_cost, kDeterministic);
  v.leaf("migration_cost", o.migration_cost, kDeterministic);
}

struct ObjectiveOptions {
  // Charge E_j per hosted VM (paper's literal Eq. 22) instead of once per
  // used server.
  bool opex_per_vm = false;
  // Scale M_k by the spine-leaf hop distance between source and target
  // server (extension; longer moves cross more fabric tiers).
  bool topology_migration_weight = false;
};

}  // namespace iaas
