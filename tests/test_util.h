// Shared helpers for building small, fully-controlled instances in tests.
#pragma once

#include <vector>

#include "model/instance.h"
#include "model/placement_state.h"
#include "workload/generator.h"

namespace iaas::test {

inline Server make_server(std::uint32_t datacenter,
                          std::vector<double> capacity, double opex = 10.0,
                          double usage_cost = 1.0, double factor = 1.0,
                          double max_load = 0.8, double max_qos = 0.95) {
  Server s;
  s.datacenter = datacenter;
  s.capacity = std::move(capacity);
  s.factor.assign(s.capacity.size(), factor);
  s.max_load.assign(s.capacity.size(), max_load);
  s.max_qos.assign(s.capacity.size(), max_qos);
  s.opex = opex;
  s.usage_cost = usage_cost;
  return s;
}

inline VmRequest make_vm(std::vector<double> demand, double qos = 0.9,
                         double downtime_cost = 10.0,
                         double migration_cost = 2.0) {
  VmRequest vm;
  vm.demand = std::move(demand);
  vm.qos_guarantee = qos;
  vm.downtime_cost = downtime_cost;
  vm.migration_cost = migration_cost;
  return vm;
}

// g datacenters x servers_per_dc identical servers (one leaf per DC), all
// with `capacity` per attribute; VMs given by their demand vectors.
inline Instance make_instance(
    std::uint32_t datacenters, std::uint32_t servers_per_dc,
    const std::vector<double>& capacity,
    const std::vector<std::vector<double>>& vm_demands,
    std::vector<PlacementConstraint> constraints = {}) {
  FabricConfig fc;
  fc.datacenters = datacenters;
  fc.leaves_per_dc = 1;
  fc.servers_per_leaf = servers_per_dc;
  fc.spines_per_dc = 2;
  fc.cores = 2;

  std::vector<Server> servers;
  for (std::uint32_t dc = 0; dc < datacenters; ++dc) {
    for (std::uint32_t s = 0; s < servers_per_dc; ++s) {
      servers.push_back(make_server(dc, capacity));
    }
  }
  RequestSet requests;
  for (const auto& demand : vm_demands) {
    requests.vms.push_back(make_vm(demand));
  }
  requests.constraints = std::move(constraints);
  return Instance(Infrastructure(fc, std::move(servers)),
                  std::move(requests));
}

// A small random instance via the real generator (deterministic per seed).
inline Instance make_random_instance(std::uint64_t seed,
                                     std::uint32_t servers = 16,
                                     std::uint32_t vms = 32) {
  ScenarioConfig cfg = ScenarioConfig::paper_scale(servers);
  cfg.vms = vms;
  return ScenarioGenerator(cfg).generate(seed);
}

// Objectives of `placement` from a full PlacementState rebuild.
inline ObjectiveVector objectives_of(const Instance& instance,
                                     const Placement& placement,
                                     ObjectiveOptions options = {}) {
  PlacementState state(instance, options);
  state.rebuild(placement);
  return state.objectives();
}

}  // namespace iaas::test
