// A consumer (requested) resource — a virtual machine, carrying the
// per-VM rows of the paper's matrices and vectors:
//   demand[l]       = C_kl  (Eq. 2)  requested capacity per attribute
//   qos_guarantee   = C^Q_k          QoS level the provider must uphold
//   downtime_cost   = C^U_k          penalty per QoS/SLA violation
//   migration_cost  = M_k   (Eq.26)  cost of moving this VM in a plan
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace iaas {

struct VmRequest {
  std::vector<double> demand;     // C_kl >= 0 (as reported by the consumer)
  double qos_guarantee = 0.9;     // C^Q_k in (0, 1)
  double downtime_cost = 0.0;     // C^U_k >= 0
  double migration_cost = 0.0;    // M_k >= 0

  // Owning consumer (tenant).  Always 0 in legacy anonymous scenarios
  // (ScenarioConfig::consumers == 0), where fairness metrics are off.
  std::uint32_t consumer = 0;

  // Honest demand vector when the consumer misreported (strategic
  // mode); empty means demand is truthful.  Allocators never look at
  // this — only the fairness metrics layer does.
  std::vector<double> true_demand;

  [[nodiscard]] std::size_t attribute_count() const { return demand.size(); }

  // What the VM actually needs: true_demand if the consumer lied,
  // otherwise the reported demand.
  [[nodiscard]] const std::vector<double>& actual_demand() const {
    return true_demand.empty() ? demand : true_demand;
  }

  // Structural sanity: demand rows sized h, every value finite and in
  // range (NaN fails every compare below).
  [[nodiscard]] bool valid(std::size_t h) const {
    const auto finite_non_negative = [](double x) {
      return std::isfinite(x) && x >= 0.0;
    };
    if (demand.size() != h) {
      return false;
    }
    for (double d : demand) {
      if (!finite_non_negative(d)) {
        return false;
      }
    }
    if (!true_demand.empty()) {
      if (true_demand.size() != h) {
        return false;
      }
      for (double d : true_demand) {
        if (!finite_non_negative(d)) {
          return false;
        }
      }
    }
    return qos_guarantee > 0.0 && qos_guarantee < 1.0 &&
           finite_non_negative(downtime_cost) &&
           finite_non_negative(migration_cost);
  }
};

}  // namespace iaas
