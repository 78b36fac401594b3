// Reconfiguration plan: the concrete action list a provider executes to
// move from the previous window's placement to the next one (the paper's
// third objective estimates this plan's size/cost, Eq. 26).
#pragma once

#include <cstdint>
#include <vector>

#include "model/instance.h"
#include "model/placement.h"

namespace iaas {

enum class ActionKind : std::uint8_t {
  kBoot,     // newly placed VM
  kMigrate,  // moved between servers
  kStop,     // previously placed, now rejected/absent
};

struct ReconfigurationAction {
  ActionKind kind;
  std::uint32_t vm;
  std::int32_t from;  // kRejected for boots
  std::int32_t to;    // kRejected for stops
  double cost;        // M_k for migrations, 0 otherwise
};

struct ReconfigurationPlan {
  std::vector<ReconfigurationAction> actions;

  [[nodiscard]] std::size_t boots() const;
  [[nodiscard]] std::size_t migrations() const;
  [[nodiscard]] double migration_cost() const;
};

// Diff `from` -> `to` for the VMs of `instance` (both placements sized
// instance.n()); migration cost follows Eq. 26 (M_k per moved VM).
ReconfigurationPlan make_plan(const Instance& instance, const Placement& from,
                              const Placement& to);

}  // namespace iaas
