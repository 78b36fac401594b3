// The integer linear programming formulation of the allocation problem
// (paper §III, Eqs. 4-21), built mechanically from an Instance.
//
// Decision variables:
//   x[j][k]  binary — VM k hosted on server j (the paper's X_ijk with the
//            datacenter index folded into j, since j determines i);
//   y[j]     binary — server j is in use (linking: x[j][k] <= y[j]),
//            carrying the exploitation cost E_j once per used server.
//
// Constraints emitted:
//   capacity   (Eq. 16):  sum_k C_kl x[j][k] <= P_jl F_jl     per (j, l)
//   assignment (Eq. 17):  sum_j x[j][k] == 1                  per k
//   same-server       (Eq. 19/21 linearised per Eqs. 13-14): pairwise
//                      x[j][k1] == x[j][k2] for every j
//   same-datacenter   (Eq. 18): pairwise sum_{j in dc} equality per dc
//   different-servers (Eq. 21): sum_{k in G} x[j][k] <= 1 per j
//   different-datacenters (Eq. 20): sum_{k in G, j in dc} x <= 1 per dc
//   linking:           x[j][k] <= y[j]
//
// Objective: the linearisable part of Eq. 15 — usage + exploitation
// (Eq. 22) plus migration (Eq. 26).  The downtime term (Eq. 23) is a
// non-linear function of load (exponential QoS decay, Eq. 24) and is
// intentionally not part of the ILP; the paper's constraint-solver
// baseline optimises cost under hard constraints and the metaheuristics
// handle the full three-term objective.
//
// The model exists to (a) document the exact formulation, (b) let tests
// cross-validate ConstraintChecker/PlacementState against an independent
// encoding, and (c) provide the CP solver's bound machinery.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lp/lin_expr.h"
#include "model/instance.h"
#include "model/placement.h"

namespace iaas {

class LinModel {
 public:
  explicit LinModel(const Instance& instance);

  [[nodiscard]] std::size_t variable_count() const { return var_count_; }
  [[nodiscard]] const std::vector<LinConstraint>& constraints() const {
    return constraints_;
  }
  [[nodiscard]] const LinExpr& objective() const { return objective_; }

  // Variable handles.
  [[nodiscard]] VarId x(std::size_t j, std::size_t k) const;
  [[nodiscard]] VarId y(std::size_t j) const;

  // Encode a placement as a 0/1 assignment vector over the model's
  // variables (rejected VMs leave their row all-zero, which deliberately
  // breaks Eq. 17 — rejection is outside the pure ILP).  Only tests call
  // it: with violated_count it is the independent ILP oracle that
  // LinModelConsistency checks ConstraintChecker against.
  [[nodiscard]] std::vector<double> encode(const Placement& placement) const;

  // Count constraints violated by an assignment; the other half of that
  // test-only oracle.
  [[nodiscard]] std::size_t violated_count(
      const std::vector<double>& assignment) const;

  [[nodiscard]] double objective_value(
      const std::vector<double>& assignment) const {
    return objective_.value(assignment);
  }

  [[nodiscard]] const Instance& instance() const { return *instance_; }

 private:
  void build();

  const Instance* instance_;
  std::size_t var_count_ = 0;
  std::vector<LinConstraint> constraints_;
  LinExpr objective_;
};

}  // namespace iaas
