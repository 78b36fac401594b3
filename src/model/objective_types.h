// Value types of the paper's global objective (Eq. 15): the three cost
// terms, the stakeholder weights, and the evaluation options shared by
// the full Evaluator and the incremental PlacementState engine.
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

// Stakeholder-tunable objective weights — the paper assigns equal
// weights "without loss of generality [...] that can otherwise be tuned
// and configured differently by the stakeholders".
struct ObjectiveWeights {
  double usage = 1.0;
  double downtime = 1.0;
  double migration = 1.0;
};

inline double weighted_aggregate(const ObjectiveVector& objectives,
                                 const ObjectiveWeights& weights) {
  return weights.usage * objectives.usage_cost +
         weights.downtime * objectives.downtime_cost +
         weights.migration * objectives.migration_cost;
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
