// Core / Spine-Leaf datacenter fabric (paper Fig. 1).
//
// The paper grounds its allocation model on the modern spine-leaf
// architecture [19][20][21]: each datacenter is a two-tier Clos fabric
// (every leaf connects to every spine), datacenters are joined through a
// core layer.  The allocator itself only needs server identities and their
// datacenter membership, but the fabric provides the physical quantities
// the cost and workload models draw on: hop distances (migration locality),
// path redundancy (availability) and bisection bandwidth.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/expect.h"

namespace iaas {

enum class NodeKind : std::uint8_t { kCore, kSpine, kLeaf, kServer };

struct FabricNode {
  NodeKind kind;
  std::uint32_t datacenter;  // owning DC; cores use kNoDatacenter
  std::uint32_t index_in_tier;
};

struct FabricLink {
  std::uint32_t a;            // node id
  std::uint32_t b;            // node id
  double bandwidth_gbps;
};

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
  static constexpr std::uint32_t kNoDatacenter = 0xffffffffu;

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

  // Global server indices hosted by a (datacenter, leaf) pair: a view
  // into a leaf-major index table precomputed at construction — no
  // allocation per call (hot in fault injection and shard slicing).
  [[nodiscard]] std::span<const std::uint32_t> servers_on_leaf(
      std::uint32_t datacenter, std::uint32_t leaf) const;

  // Leaves enumerated globally (datacenter-major, matching the global
  // server order), so correlated failure domains can be indexed with one
  // integer: global leaf g hosts servers [g*servers_per_leaf,
  // (g+1)*servers_per_leaf).
  [[nodiscard]] std::uint32_t leaf_count() const {
    return config_.datacenters * config_.leaves_per_dc;
  }
  [[nodiscard]] std::uint32_t global_leaf_of_server(
      std::uint32_t server) const;
  [[nodiscard]] std::span<const std::uint32_t> servers_on_global_leaf(
      std::uint32_t global_leaf) const;

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
      for (std::uint32_t j = lo; j < hi; ++j) {
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

  // Aggregate leaf-to-spine bandwidth of one datacenter (its bisection
  // ceiling under full Clos wiring).
  [[nodiscard]] double bisection_bandwidth_gbps(std::uint32_t datacenter) const;

  // Bottleneck link bandwidth along a shortest server-to-server path.
  [[nodiscard]] double path_bandwidth_gbps(std::uint32_t server_a,
                                           std::uint32_t server_b) const;

  [[nodiscard]] const std::vector<FabricNode>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<FabricLink>& links() const { return links_; }

  // Human-readable one-line summary ("2 DC x (2 spine, 4 leaf, 32 srv)").
  [[nodiscard]] std::string summary() const;

 private:
  FabricConfig config_;
  std::uint32_t server_count_;
  std::vector<FabricNode> nodes_;
  std::vector<FabricLink> links_;
  std::vector<std::uint32_t> server_node_ids_;  // server index -> node id
  // Global server ids in leaf-major order: global leaf g's servers are
  // the contiguous run [g * servers_per_leaf, (g+1) * servers_per_leaf)
  // of this table, which servers_on_leaf returns as a span.
  std::vector<std::uint32_t> leaf_servers_;
};

}  // namespace iaas
