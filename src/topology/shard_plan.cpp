#include "topology/shard_plan.h"

#include <algorithm>

namespace iaas {

ShardPlan::ShardPlan(const Fabric& fabric, std::uint32_t shard_count)
    : config_(fabric.config()) {
  const std::uint32_t d = config_.datacenters;
  const std::uint32_t lpd = config_.leaves_per_dc;
  const std::uint32_t spl = config_.servers_per_leaf;
  const std::uint32_t leaves = fabric.leaf_count();
  const std::uint32_t s_count =
      std::clamp<std::uint32_t>(shard_count, 1, leaves);

  slices_.reserve(s_count);
  if (s_count <= d) {
    // Contiguous whole-DC blocks, sizes differing by at most one DC
    // (floor boundaries).  Slices keep full datacenter semantics.
    for (std::uint32_t s = 0; s < s_count; ++s) {
      ShardSlice slice;
      slice.dc_begin = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(s) * d / s_count);
      slice.dc_end = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(s + 1) * d / s_count);
      slice.leaf_begin = slice.dc_begin * lpd;
      slice.leaf_end = slice.dc_end * lpd;
      slice.whole_datacenters = true;
      slices_.push_back(slice);
    }
  } else {
    // Spread the shards over the DCs proportionally (each DC gets at
    // most ceil(S/d) <= leaves_per_dc local shards, so every shard owns
    // at least one leaf), then split each DC's leaves into contiguous
    // blocks, one per local shard.
    for (std::uint32_t dc = 0; dc < d; ++dc) {
      const auto lo = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(s_count) * dc / d);
      const auto hi = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(s_count) * (dc + 1) / d);
      const std::uint32_t local_shards = hi - lo;
      for (std::uint32_t t = 0; t < local_shards; ++t) {
        ShardSlice slice;
        slice.dc_begin = dc;
        slice.dc_end = dc + 1;
        slice.leaf_begin =
            dc * lpd + static_cast<std::uint32_t>(
                           static_cast<std::uint64_t>(t) * lpd / local_shards);
        slice.leaf_end =
            dc * lpd +
            static_cast<std::uint32_t>(
                static_cast<std::uint64_t>(t + 1) * lpd / local_shards);
        slice.whole_datacenters = local_shards == 1;
        slices_.push_back(slice);
      }
    }
  }

  for (ShardSlice& slice : slices_) {
    slice.server_begin = slice.leaf_begin * spl;
    slice.server_end = slice.leaf_end * spl;
    IAAS_EXPECT(slice.leaf_begin < slice.leaf_end, "empty shard slice");
  }
  IAAS_EXPECT(slices_.front().server_begin == 0 &&
                  slices_.back().server_end == fabric.server_count(),
              "shard slices must tile the server range");
}

FabricConfig ShardPlan::slice_fabric(std::size_t s) const {
  const ShardSlice& sl = slice(s);
  FabricConfig cfg = config_;
  if (sl.whole_datacenters) {
    cfg.datacenters = sl.datacenter_count();
  } else {
    // Partial-DC slice: one DC holding exactly the slice's leaves.
    cfg.datacenters = 1;
    cfg.leaves_per_dc = sl.leaf_end - sl.leaf_begin;
  }
  return cfg;
}

}  // namespace iaas
