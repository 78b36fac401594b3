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

// Eq. 24 divides by (1 - L^M): a knee at exactly 1.0 (or NaN, or out of
// range) would emit inf/NaN that propagates into the Eq. 23 downtime
// cost and silently poisons every objective downstream.  The knee is
// clamped in all build modes — a server loadable to 100% degrades with
// the steepest finite slope instead, and a NaN or negative knee becomes
// 0.  validate_instance additionally flags such servers on untrusted
// input.
inline double clamp_knee(double max_load) {
  constexpr double kKneeCeiling = 1.0 - 1e-9;
  if (!(max_load >= 0.0)) {  // negated compare also catches NaN
    return 0.0;
  }
  return max_load > kKneeCeiling ? kKneeCeiling : max_load;
}

// Eq. 24 at a knee already clamped by clamp_knee: the exp runs only above
// the knee.  PlacementState reads the clamped knees from its StateTables
// and calls this once per attribute of every server it scans.
inline double qos_at_knee(double load, double knee, double max_qos) {
  if (load <= knee) {
    return max_qos;
  }
  return max_qos * std::exp((knee - load) / (1.0 - knee));
}

// QoS value for a single (load, knee, max_qos) triple; the scalar core of
// Eq. 24.  Kept for test_load_model, which pins Eq. 24 through it.
inline double qos_at_load(double load, double max_load, double max_qos) {
  return qos_at_knee(load, clamp_knee(max_load), max_qos);
}

// Fills `loads` (m x h) with Eq. 25 for the given placement; rejected VMs
// contribute nothing.  `loads` is resized if needed.
void compute_loads(const Instance& instance, const Placement& placement,
                   Matrix<double>& loads);

}  // namespace iaas
