#include "sim/reconfiguration_plan.h"

#include "common/expect.h"

namespace iaas {

std::size_t ReconfigurationPlan::boots() const {
  std::size_t n = 0;
  for (const auto& a : actions) {
    n += a.kind == ActionKind::kBoot ? 1 : 0;
  }
  return n;
}

std::size_t ReconfigurationPlan::migrations() const {
  std::size_t n = 0;
  for (const auto& a : actions) {
    n += a.kind == ActionKind::kMigrate ? 1 : 0;
  }
  return n;
}

double ReconfigurationPlan::migration_cost() const {
  double total = 0.0;
  for (const auto& a : actions) {
    total += a.cost;
  }
  return total;
}

ReconfigurationPlan make_plan(const Instance& instance, const Placement& from,
                              const Placement& to) {
  IAAS_EXPECT(from.vm_count() == instance.n() && to.vm_count() == instance.n(),
              "placement size mismatch with instance");
  ReconfigurationPlan plan;
  for (std::size_t k = 0; k < instance.n(); ++k) {
    const std::int32_t a = from.server_of(k);
    const std::int32_t b = to.server_of(k);
    if (a == b) {
      continue;
    }
    const auto vm = static_cast<std::uint32_t>(k);
    if (a == Placement::kRejected) {
      plan.actions.push_back({ActionKind::kBoot, vm, a, b, 0.0});
    } else if (b == Placement::kRejected) {
      plan.actions.push_back({ActionKind::kStop, vm, a, b, 0.0});
    } else {
      plan.actions.push_back({ActionKind::kMigrate, vm, a, b,
                              instance.requests.vms[k].migration_cost});
    }
  }
  return plan;
}

}  // namespace iaas
