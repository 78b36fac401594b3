// The provider side of the allocation problem: a spine-leaf fabric plus
// one Server record per physical host.  g datacenters, m servers,
// h attributes (paper Table I).
#pragma once

#include <cstdint>
#include <vector>

#include "model/server.h"
#include "topology/fabric.h"

namespace iaas {

class Infrastructure {
 public:
  // Servers must be ordered by datacenter and sized to the fabric
  // (one record per fabric server, matching datacenter membership).
  Infrastructure(FabricConfig fabric_config, std::vector<Server> servers);

  [[nodiscard]] const Fabric& fabric() const { return fabric_; }

  [[nodiscard]] std::size_t server_count() const { return servers_.size(); }
  [[nodiscard]] std::size_t datacenter_count() const {
    return fabric_.datacenter_count();
  }
  [[nodiscard]] std::size_t attribute_count() const { return attributes_; }

  [[nodiscard]] const Server& server(std::size_t j) const {
    IAAS_DEBUG_EXPECT(j < servers_.size(), "server index out of range");
    return servers_[j];
  }
  [[nodiscard]] const std::vector<Server>& servers() const { return servers_; }

  [[nodiscard]] std::uint32_t datacenter_of(std::size_t j) const {
    IAAS_DEBUG_EXPECT(j < servers_.size(), "server index out of range");
    return servers_[j].datacenter;
  }

  // Total effective capacity of attribute l across all servers.
  [[nodiscard]] double total_effective_capacity(std::size_t l) const;

 private:
  Fabric fabric_;
  std::vector<Server> servers_;
  std::size_t attributes_;
};

}  // namespace iaas
