// Random scenario generator: ScenarioConfig + seed -> Instance.
//
// Deterministic: identical (config, seed) pairs produce identical
// instances on every platform (the Rng implements its own distributions).
// Infrastructure and request generation are exposed separately so the
// time-window simulator can draw fresh request batches against a fixed
// infrastructure.
#pragma once

#include <cstdint>
#include <vector>

#include "model/instance.h"
#include "workload/scenario_config.h"

namespace iaas {

// The server classes and VM flavors every scenario draws from
// (documented "cloud provider practices" stand-ins).
const std::vector<ServerClassParams>& default_server_classes();
const std::vector<VmFlavorParams>& default_vm_flavors();

class ScenarioGenerator {
 public:
  explicit ScenarioGenerator(ScenarioConfig config);

  // Full instance (infrastructure + requests + optional previous
  // placement per config.preplaced_fraction).
  [[nodiscard]] Instance generate(std::uint64_t seed) const;

  // Provider side only.
  [[nodiscard]] Infrastructure generate_infrastructure(
      std::uint64_t seed) const;

  // A batch of `count` consumer requests with relationship groups drawn
  // inside the batch; `infra` bounds same-server groups to satisfiable
  // sizes.
  [[nodiscard]] RequestSet generate_requests(const Infrastructure& infra,
                                             std::uint32_t count,
                                             std::uint64_t seed) const;

  // The fabric a generated instance will use (server totals rounded up to
  // full leaves; callers can read the exact m before generating).
  [[nodiscard]] FabricConfig fabric_config() const;

 private:
  ScenarioConfig config_;
};

}  // namespace iaas
