// Core / Spine-Leaf datacenter fabric (paper Fig. 1).
//
// The paper grounds its allocation model on the modern spine-leaf
// architecture [19][20][21]: each datacenter is a two-tier Clos fabric
// (every leaf connects to every spine), datacenters are joined through a
// core layer.  The allocator itself only needs server identities and their
// datacenter membership, but the fabric provides the physical quantities
// the cost and workload models draw on: hop distances (migration locality),
// path redundancy (availability) and path bandwidth.  Servers are numbered
// datacenter-major, then leaf-major, so every leaf, datacenter and shard
// is one contiguous index range and no node or link table is kept.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ranges>
#include <string>
#include <utility>

#include "common/expect.h"

namespace iaas {

struct FabricConfig {
  std::uint32_t datacenters = 1;
  std::uint32_t cores = 2;              // shared inter-DC core switches
  std::uint32_t spines_per_dc = 2;
  std::uint32_t leaves_per_dc = 4;
  std::uint32_t servers_per_leaf = 8;
  double core_spine_gbps = 100.0;
  double spine_leaf_gbps = 40.0;
  double leaf_server_gbps = 10.0;
};

class Fabric {
 public:
  // Refuses an empty tier and a link speed that is not positive.
  explicit Fabric(const FabricConfig& config);

  [[nodiscard]] const FabricConfig& config() const { return config_; }
  [[nodiscard]] std::uint32_t datacenter_count() const {
    return config_.datacenters;
  }
  [[nodiscard]] std::uint32_t server_count() const { return server_count_; }
  [[nodiscard]] std::uint32_t servers_per_datacenter() const {
    return config_.leaves_per_dc * config_.servers_per_leaf;
  }

  // Global server index -> owning datacenter / leaf.
  [[nodiscard]] std::uint32_t datacenter_of_server(std::uint32_t server) const;
  [[nodiscard]] std::uint32_t leaf_of_server(std::uint32_t server) const;

  // Leaves enumerated globally (datacenter-major, matching the global
  // server order), so correlated failure domains can be indexed with one
  // integer: global leaf g hosts the server range [g*servers_per_leaf,
  // (g+1)*servers_per_leaf), which servers_on_global_leaf returns.
  [[nodiscard]] std::uint32_t leaf_count() const {
    return config_.datacenters * config_.leaves_per_dc;
  }
  [[nodiscard]] auto servers_on_global_leaf(std::uint32_t global_leaf) const {
    IAAS_EXPECT(global_leaf < leaf_count(), "global leaf out of range");
    const std::uint32_t lo = global_leaf * config_.servers_per_leaf;
    return std::views::iota(lo, lo + config_.servers_per_leaf);
  }

  // Network hop count between two servers: 0 same server, 2 same leaf,
  // 4 same DC (leaf-spine-leaf), 6 across DCs (via core).
  [[nodiscard]] std::uint32_t hop_distance(std::uint32_t server_a,
                                           std::uint32_t server_b) const;

  // Visits servers in ascending hop distance from `source`, ties in
  // ascending index (the order a stable sort of every server by
  // hop_distance(source, .) gives), and returns the first one for which
  // `pred` holds, or server_count() when none does.  Servers are
  // numbered datacenter-major, then leaf-major, so each distance class
  // is one or two index ranges: `source`, the rest of its leaf, the
  // rest of its datacenter, then every other datacenter.
  template <class Pred>
  std::uint32_t find_nearest(std::uint32_t source, Pred&& pred) const {
    return find_nearest(source, 0, server_count_, std::forward<Pred>(pred));
  }

  // The same visit clipped to the servers [first, last): each distance
  // class is cut to the range, so the servers inside it are visited in
  // the order above and no other is; server_count() when none matches.
  template <class Pred>
  std::uint32_t find_nearest(std::uint32_t source, std::uint32_t first,
                             std::uint32_t last, Pred&& pred) const {
    IAAS_EXPECT(source < server_count_, "server index out of range");
    const std::uint32_t leaf_lo =
        source / config_.servers_per_leaf * config_.servers_per_leaf;
    const std::uint32_t leaf_hi = leaf_lo + config_.servers_per_leaf;
    const std::uint32_t dc_lo =
        source / servers_per_datacenter() * servers_per_datacenter();
    const std::uint32_t dc_hi = dc_lo + servers_per_datacenter();
    const std::uint32_t ranges[][2] = {
        {source, source + 1}, {leaf_lo, source}, {source + 1, leaf_hi},
        {dc_lo, leaf_lo},     {leaf_hi, dc_hi},  {0, dc_lo},
        {dc_hi, server_count_}};
    for (const auto& [lo, hi] : ranges) {
      const std::uint32_t end = std::min(hi, last);
      for (std::uint32_t j = std::max(lo, first); j < end; ++j) {
        if (pred(j)) {
          return j;
        }
      }
    }
    return server_count_;
  }

  // Number of edge-disjoint shortest paths between two servers; the
  // redundancy the spine-leaf design buys [19].
  [[nodiscard]] std::uint32_t path_redundancy(std::uint32_t server_a,
                                              std::uint32_t server_b) const;

  // Bottleneck link bandwidth along a shortest server-to-server path.
  [[nodiscard]] double path_bandwidth_gbps(std::uint32_t server_a,
                                           std::uint32_t server_b) const;

  // Human-readable one-line summary ("2 DC x (2 spine, 4 leaf, 32 srv)").
  [[nodiscard]] std::string summary() const;

 private:
  FabricConfig config_;
  std::uint32_t server_count_;
};

}  // namespace iaas
