#include "sim/fault_model.h"

#include <utility>

#include "common/expect.h"

namespace iaas {

const char* fault_event_kind_name(FaultEventKind kind) {
  switch (kind) {
    case FaultEventKind::kServerFailure:
      return "server_failure";
    case FaultEventKind::kLeafFailure:
      return "leaf_failure";
    case FaultEventKind::kRepair:
      return "repair";
    case FaultEventKind::kDecommission:
      return "decommission";
  }
  return "unknown";
}

FaultModel::FaultModel(FaultConfig config, const Fabric& fabric,
                       std::uint64_t seed)
    : config_(std::move(config)),
      fabric_(&fabric),
      rng_(seed),
      state_(fabric.server_count(), kHealthy) {
  // A NaN probability fails both compares (it would switch faults off).
  const auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
  IAAS_EXPECT(probability(config_.server_failure_probability),
              "server_failure_probability must lie in [0, 1]");
  IAAS_EXPECT(probability(config_.leaf_failure_probability),
              "leaf_failure_probability must lie in [0, 1]");
  IAAS_EXPECT(probability(config_.decommission_probability),
              "decommission_probability must lie in [0, 1]");
  IAAS_EXPECT(config_.mttr_min_windows >= 1,
              "MTTR is measured in whole windows (>= 1)");
  IAAS_EXPECT(config_.mttr_min_windows <= config_.mttr_max_windows,
              "MTTR range must satisfy min <= max");
  for (const ScriptedFault& fault : config_.scripted) {
    const std::uint32_t limit =
        fault.leaf_level ? fabric.leaf_count() : fabric.server_count();
    IAAS_EXPECT(fault.index < limit, "scripted fault index out of range");
    IAAS_EXPECT(fault.decommission || fault.mttr_windows >= 1,
                "scripted fault MTTR must be >= 1 window");
  }
}

std::size_t FaultModel::draw_mttr() {
  if (config_.mttr_min_windows == config_.mttr_max_windows) {
    return config_.mttr_min_windows;
  }
  return static_cast<std::size_t>(
      rng_.uniform_int(static_cast<std::int64_t>(config_.mttr_min_windows),
                       static_cast<std::int64_t>(config_.mttr_max_windows)));
}

bool FaultModel::fail_server(std::uint32_t server, std::size_t window,
                             std::size_t mttr_windows, bool decommission) {
  std::size_t& slot = state_[server];
  if (slot != kHealthy) {
    // Already down; a decommission can still upgrade a transient outage.
    if (decommission && slot != kDecommissioned) {
      slot = kDecommissioned;
      ++decommissioned_;
    }
    return false;
  }
  if (decommission) {
    slot = kDecommissioned;
    ++decommissioned_;
  } else {
    slot = window + mttr_windows + 1;  // +1: repair window, offset-encoded
  }
  ++down_;
  return true;
}

std::vector<FaultEvent> FaultModel::advance(std::size_t window) {
  std::vector<FaultEvent> events;

  // 1. Repairs due this window (decommissioned servers never return).
  for (std::uint32_t j = 0; j < state_.size(); ++j) {
    if (state_[j] != kHealthy && state_[j] != kDecommissioned &&
        state_[j] <= window + 1) {
      state_[j] = kHealthy;
      --down_;
      events.push_back(
          {window, FaultEventKind::kRepair, j, {j}, /*mttr_windows=*/0});
    }
  }

  // 2. Scripted faults: the exact scenario a test or bench asked for.
  for (const ScriptedFault& fault : config_.scripted) {
    if (fault.window != window) {
      continue;
    }
    const std::size_t mttr = fault.decommission ? 0 : fault.mttr_windows;
    if (fault.leaf_level) {
      FaultEvent event{window, FaultEventKind::kLeafFailure, fault.index,
                       {}, mttr};
      for (std::uint32_t j : fabric_->servers_on_global_leaf(fault.index)) {
        if (fail_server(j, window, fault.mttr_windows, fault.decommission)) {
          event.servers.push_back(j);
        }
      }
      events.push_back(std::move(event));
    } else {
      const FaultEventKind kind = fault.decommission
                                      ? FaultEventKind::kDecommission
                                      : FaultEventKind::kServerFailure;
      if (fail_server(fault.index, window, fault.mttr_windows,
                      fault.decommission)) {
        events.push_back({window, kind, fault.index, {fault.index}, mttr});
      }
    }
  }

  // 3. Random rack outages: one coin per leaf, correlated loss of every
  // hosted server with one shared MTTR draw (the rack comes back as one).
  if (config_.leaf_failure_probability > 0.0) {
    for (std::uint32_t leaf = 0; leaf < fabric_->leaf_count(); ++leaf) {
      if (!rng_.bernoulli(config_.leaf_failure_probability)) {
        continue;
      }
      const std::size_t mttr = draw_mttr();
      const bool decommission =
          config_.decommission_probability > 0.0 &&
          rng_.bernoulli(config_.decommission_probability);
      FaultEvent event{window, FaultEventKind::kLeafFailure, leaf, {},
                       decommission ? 0 : mttr};
      for (std::uint32_t j : fabric_->servers_on_global_leaf(leaf)) {
        if (fail_server(j, window, mttr, decommission)) {
          event.servers.push_back(j);
        }
      }
      if (!event.servers.empty()) {
        events.push_back(std::move(event));
      }
    }
  }

  // 4. Independent server failures among the still-healthy remainder.
  if (config_.server_failure_probability > 0.0) {
    for (std::uint32_t j = 0; j < state_.size(); ++j) {
      if (state_[j] != kHealthy ||
          !rng_.bernoulli(config_.server_failure_probability)) {
        continue;
      }
      const std::size_t mttr = draw_mttr();
      const bool decommission =
          config_.decommission_probability > 0.0 &&
          rng_.bernoulli(config_.decommission_probability);
      fail_server(j, window, mttr, decommission);
      events.push_back({window,
                        decommission ? FaultEventKind::kDecommission
                                     : FaultEventKind::kServerFailure,
                        j,
                        {j},
                        decommission ? 0 : mttr});
    }
  }
  return events;
}

bool FaultModel::is_down(std::uint32_t server) const {
  IAAS_DEBUG_EXPECT(server < state_.size(), "server index out of range");
  return state_[server] != kHealthy;
}

std::size_t FaultModel::down_count() const { return down_; }

std::size_t FaultModel::decommissioned_count() const {
  return decommissioned_;
}

}  // namespace iaas
