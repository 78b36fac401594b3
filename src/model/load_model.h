// Load and quality-of-service models (paper Eqs. 24-25).
//
// Load of attribute l on server j (Eq. 25):
//     L_jl = (sum_k C_kl * X_jk) / P_jl
//
// QoS as a function of load (Eq. 24) — flat until the degradation knee
// L^M_jl, then exponential decay (the paper cites empirical studies
// [23][24] showing QoS decreases exponentially with workload):
//     Q_jl = Q^M_jl                                  if L_jl <= L^M_jl
//     Q_jl = Q^M_jl * exp((L^M_jl - L_jl)/(1-L^M_jl)) otherwise
#pragma once

#include <cmath>

#include "common/matrix.h"
#include "model/instance.h"
#include "model/placement.h"

namespace iaas {

// QoS value for a single (load, knee, max_qos) triple; the scalar core of
// Eq. 24.  Inline: PlacementState::refresh_server calls it once per
// attribute of every server it refreshes.
inline double qos_at_load(double load, double max_load, double max_qos) {
  // Eq. 24 divides by (1 - L^M): a knee at exactly 1.0 (or NaN, or out
  // of range) would emit inf/NaN that propagates into the Eq. 23
  // downtime cost and silently poisons every objective downstream.
  // Clamp in all build modes — a server loadable to 100% degrades with
  // the steepest finite slope instead.  validate_instance additionally
  // flags such servers on untrusted input.
  constexpr double kKneeCeiling = 1.0 - 1e-9;
  if (!(max_load >= 0.0)) {  // negated compare also catches NaN
    max_load = 0.0;
  } else if (max_load > kKneeCeiling) {
    max_load = kKneeCeiling;
  }
  if (load <= max_load) {
    return max_qos;
  }
  return max_qos * std::exp((max_load - load) / (1.0 - max_load));
}

// Fills `loads` (m x h) with Eq. 25 for the given placement; rejected VMs
// contribute nothing.  `loads` is resized if needed.
void compute_loads(const Instance& instance, const Placement& placement,
                   Matrix<double>& loads);

// Fills `qos` (m x h) from a load matrix via Eq. 24.
void compute_qos(const Instance& instance, const Matrix<double>& loads,
                 Matrix<double>& qos);

}  // namespace iaas
