// ShardPlan: a deterministic partition of a Fabric's servers into
// shards along the leaf/DC structure, so per-shard allocators can run
// concurrently over disjoint slices of the datacenter (DESIGN.md §12).
//
// Partition rule (pure function of the fabric shape and the requested
// shard count, never of the request load):
//   * shard_count <= datacenters: each shard is a contiguous block of
//     whole datacenters (block sizes differ by at most one DC).  Slice
//     fabrics keep the multi-DC structure, so same-/different-datacenter
//     relationship groups stay exactly checkable inside the shard.
//   * shard_count > datacenters: shards are spread over the DCs
//     proportionally (floor(S*d/g) boundaries) and each DC's leaves are
//     split into contiguous blocks, one per local shard.  Slice fabrics
//     are single-DC; a different-datacenters group is unsatisfiable
//     inside such a shard and must be handled by the caller (the
//     sharded allocator's cross-shard rebalance pass places those VMs
//     on the *global* state, where real DC identities are visible).
//
// Because global server ids are leaf-major, every shard covers one
// contiguous global server range — slicing Server records, placements
// and gene vectors is a copy of a subrange plus an index offset.
#pragma once

#include <cstdint>
#include <vector>

#include "common/expect.h"
#include "topology/fabric.h"

namespace iaas {

struct ShardSlice {
  std::uint32_t leaf_begin = 0;    // global leaf range [leaf_begin, leaf_end)
  std::uint32_t leaf_end = 0;
  std::uint32_t server_begin = 0;  // derived: leaf range * servers_per_leaf
  std::uint32_t server_end = 0;
  std::uint32_t dc_begin = 0;      // datacenters covered [dc_begin, dc_end)
  std::uint32_t dc_end = 0;
  // True when the slice boundaries align to whole datacenters (the
  // shard_count <= datacenters arm); such slices preserve exact
  // datacenter semantics for relationship constraints.
  bool whole_datacenters = false;

  [[nodiscard]] std::uint32_t server_count() const {
    return server_end - server_begin;
  }
  [[nodiscard]] std::uint32_t datacenter_count() const {
    return dc_end - dc_begin;
  }

  friend bool operator==(const ShardSlice&, const ShardSlice&) = default;
};

class ShardPlan {
 public:
  // `shard_count` is clamped to [1, fabric.leaf_count()] — a shard is
  // never smaller than one leaf.
  ShardPlan(const Fabric& fabric, std::uint32_t shard_count);

  [[nodiscard]] std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(slices_.size());
  }
  [[nodiscard]] const ShardSlice& slice(std::size_t s) const {
    IAAS_EXPECT(s < slices_.size(), "shard index out of range");
    return slices_[s];
  }
  [[nodiscard]] const std::vector<ShardSlice>& slices() const {
    return slices_;
  }

  // The slice's own fabric shape: whole-DC slices keep the original
  // per-DC tier sizes over datacenter_count() DCs; partial-DC slices
  // collapse to one DC holding the slice's leaves.  Spine/core counts
  // and link speeds are inherited from the parent config.
  [[nodiscard]] FabricConfig slice_fabric(std::size_t s) const;

 private:
  const FabricConfig config_;
  std::vector<ShardSlice> slices_;
};

}  // namespace iaas
