// Affinity / anti-affinity relationships (paper §III, Eqs. 9-12):
//   kSameDatacenter      - co-localisation in same datacenter   (Eq. 9)
//   kSameServer          - co-localisation on same server       (Eq. 10)
//   kDifferentDatacenters- separation in different datacenters  (Eq. 11)
//   kDifferentServers    - separation on different servers      (Eq. 12)
//
// A constraint applies to a *group* of consumer resources within one user
// request ("within the same request, it is possible to have different
// types of services such as CPU, memory, affinity and anti-affinity
// constraints").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace iaas {

enum class RelationKind : std::uint8_t {
  kSameDatacenter,
  kSameServer,
  kDifferentDatacenters,
  kDifferentServers,
};

inline std::string relation_name(RelationKind kind) {
  switch (kind) {
    case RelationKind::kSameDatacenter:
      return "same-datacenter";
    case RelationKind::kSameServer:
      return "same-server";
    case RelationKind::kDifferentDatacenters:
      return "different-datacenters";
    case RelationKind::kDifferentServers:
      return "different-servers";
  }
  return "unknown";
}

struct PlacementConstraint {
  RelationKind kind;
  std::vector<std::uint32_t> vms;  // indices into the request set, size >= 2
};

}  // namespace iaas
