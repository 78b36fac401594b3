#include "topology/fabric.h"

#include <algorithm>
#include <sstream>

#include "common/expect.h"

namespace iaas {

Fabric::Fabric(const FabricConfig& config) : config_(config) {
  IAAS_EXPECT(config.datacenters > 0, "fabric needs at least one datacenter");
  IAAS_EXPECT(config.spines_per_dc > 0 && config.leaves_per_dc > 0 &&
                  config.servers_per_leaf > 0 && config.cores > 0,
              "fabric tiers must be non-empty");
  // A NaN speed fails the compare too.
  IAAS_EXPECT(config.core_spine_gbps > 0.0 && config.spine_leaf_gbps > 0.0 &&
                  config.leaf_server_gbps > 0.0,
              "fabric link speeds must be positive");
  server_count_ = config.datacenters * servers_per_datacenter();
}

std::uint32_t Fabric::datacenter_of_server(std::uint32_t server) const {
  IAAS_EXPECT(server < server_count_, "server index out of range");
  return server / servers_per_datacenter();
}

std::uint32_t Fabric::leaf_of_server(std::uint32_t server) const {
  IAAS_EXPECT(server < server_count_, "server index out of range");
  return (server % servers_per_datacenter()) / config_.servers_per_leaf;
}

std::uint32_t Fabric::hop_distance(std::uint32_t server_a,
                                   std::uint32_t server_b) const {
  if (server_a == server_b) {
    return 0;
  }
  const std::uint32_t dc_a = datacenter_of_server(server_a);
  const std::uint32_t dc_b = datacenter_of_server(server_b);
  if (dc_a != dc_b) {
    return 6;  // server-leaf-spine-core-spine-leaf-server
  }
  if (leaf_of_server(server_a) == leaf_of_server(server_b)) {
    return 2;  // via the shared leaf
  }
  return 4;  // leaf-spine-leaf inside one DC
}

std::uint32_t Fabric::path_redundancy(std::uint32_t server_a,
                                      std::uint32_t server_b) const {
  const std::uint32_t hops = hop_distance(server_a, server_b);
  switch (hops) {
    case 0:
    case 2:
      return 1;  // single leaf (or none) on the path
    case 4:
      return config_.spines_per_dc;  // one disjoint path per spine
    default:
      return std::min(config_.spines_per_dc, config_.cores);
  }
}

double Fabric::path_bandwidth_gbps(std::uint32_t server_a,
                                   std::uint32_t server_b) const {
  const std::uint32_t hops = hop_distance(server_a, server_b);
  if (hops == 0) {
    return 0.0;  // no network traversal: migration stays on-host
  }
  if (hops == 2) {
    return config_.leaf_server_gbps;
  }
  double bottleneck = std::min(config_.leaf_server_gbps,
                               config_.spine_leaf_gbps);
  if (hops == 6) {
    bottleneck = std::min(bottleneck, config_.core_spine_gbps);
  }
  return bottleneck;
}

std::string Fabric::summary() const {
  std::ostringstream out;
  out << config_.datacenters << " DC x (" << config_.spines_per_dc
      << " spine, " << config_.leaves_per_dc << " leaf, "
      << servers_per_datacenter() << " srv), " << config_.cores << " cores, "
      << server_count_ << " servers total";
  return out.str();
}

}  // namespace iaas
