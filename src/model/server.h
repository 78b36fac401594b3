// A provider resource (physical server / hypervisor host), carrying the
// per-server rows of the paper's matrices and vectors:
//   capacity[l]   = P_jl   (Eq. 1)   raw capacity per attribute
//   factor[l]     = F_jl   (Eq. 3)   virtual-to-physical consumption factor
//   max_load[l]   = L^M_jl (Eq. 8)   load knee before QoS degradation
//   max_qos[l]    = Q^M_jl (Eq. 8)   best achievable QoS
//   opex          = E_j    (Eq. 6)   operating expense (power, floor
//                                    space, storage, IT operations)
//   usage_cost    = U_j    (Eq. 7)   cost per hosted consumer resource
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/expect.h"

namespace iaas {

struct Server {
  std::uint32_t datacenter = 0;
  std::vector<double> capacity;   // P_jl > 0
  std::vector<double> factor;     // F_jl in (0, 1]: share of raw capacity
                                  // left for virtual resources after the
                                  // virtualisation overhead
  std::vector<double> max_load;   // L^M_jl in [0, 1)
  std::vector<double> max_qos;    // Q^M_jl in [0, 1)
  double opex = 0.0;              // E_j >= 0
  double usage_cost = 0.0;        // U_j >= 0

  // Effective capacity available to consumer resources: P_jl * F_jl
  // (right-hand side of the capacity constraint, Eq. 4 / Eq. 16).
  [[nodiscard]] double effective_capacity(std::size_t l) const {
    IAAS_DEBUG_EXPECT(l < capacity.size(), "attribute out of range");
    return capacity[l] * factor[l];
  }

  [[nodiscard]] std::size_t attribute_count() const {
    return capacity.size();
  }

  // Structural sanity: all attribute vectors sized h, values finite and
  // in range.  The compares are written so that NaN fails them, except
  // for max_load: a NaN knee passes here and is left to
  // validate_instance's Eq. 24 singularity screen (qos_at_load clamps it
  // to 0 at runtime).
  [[nodiscard]] bool valid(std::size_t h) const {
    if (capacity.size() != h || factor.size() != h ||
        max_load.size() != h || max_qos.size() != h) {
      return false;
    }
    for (std::size_t l = 0; l < h; ++l) {
      if (!(std::isfinite(capacity[l]) && capacity[l] > 0.0) ||
          !(factor[l] > 0.0 && factor[l] <= 1.0) || max_load[l] < 0.0 ||
          max_load[l] >= 1.0 || !(max_qos[l] >= 0.0 && max_qos[l] < 1.0)) {
        return false;
      }
    }
    return std::isfinite(opex) && opex >= 0.0 && std::isfinite(usage_cost) &&
           usage_cost >= 0.0;
  }
};

}  // namespace iaas
