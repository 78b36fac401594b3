// Spine-leaf fabric substrate (paper Fig. 1).
#include "topology/fabric.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

namespace iaas {
namespace {

FabricConfig small_config() {
  FabricConfig fc;
  fc.datacenters = 2;
  fc.cores = 2;
  fc.spines_per_dc = 2;
  fc.leaves_per_dc = 3;
  fc.servers_per_leaf = 4;
  return fc;
}

TEST(Fabric, CountsMatchConfig) {
  const Fabric fabric(small_config());
  EXPECT_EQ(fabric.datacenter_count(), 2u);
  EXPECT_EQ(fabric.servers_per_datacenter(), 12u);
  EXPECT_EQ(fabric.server_count(), 24u);
  EXPECT_EQ(fabric.leaf_count(), 6u);
}

TEST(Fabric, DatacenterOfServerPartitions) {
  const Fabric fabric(small_config());
  for (std::uint32_t s = 0; s < 12; ++s) {
    EXPECT_EQ(fabric.datacenter_of_server(s), 0u);
  }
  for (std::uint32_t s = 12; s < 24; ++s) {
    EXPECT_EQ(fabric.datacenter_of_server(s), 1u);
  }
}

TEST(Fabric, LeafOfServer) {
  const Fabric fabric(small_config());
  EXPECT_EQ(fabric.leaf_of_server(0), 0u);
  EXPECT_EQ(fabric.leaf_of_server(3), 0u);
  EXPECT_EQ(fabric.leaf_of_server(4), 1u);
  EXPECT_EQ(fabric.leaf_of_server(11), 2u);
  EXPECT_EQ(fabric.leaf_of_server(12), 0u);  // first leaf of DC 1
}

TEST(Fabric, ServersOnGlobalLeaf) {
  const Fabric fabric(small_config());
  const auto servers = fabric.servers_on_global_leaf(3 + 2);  // DC 1, leaf 2
  ASSERT_EQ(servers.size(), 4u);
  EXPECT_EQ(servers.front(), 12u + 8u);
  EXPECT_EQ(servers.back(), 12u + 11u);
  for (std::uint32_t s : servers) {
    EXPECT_EQ(fabric.datacenter_of_server(s), 1u);
    EXPECT_EQ(fabric.leaf_of_server(s), 2u);
  }
}

TEST(Fabric, HopDistanceTiers) {
  const Fabric fabric(small_config());
  EXPECT_EQ(fabric.hop_distance(0, 0), 0u);   // same server
  EXPECT_EQ(fabric.hop_distance(0, 1), 2u);   // same leaf
  EXPECT_EQ(fabric.hop_distance(0, 5), 4u);   // same DC, other leaf
  EXPECT_EQ(fabric.hop_distance(0, 13), 6u);  // other DC
}

TEST(Fabric, HopDistanceIsSymmetric) {
  const Fabric fabric(small_config());
  for (std::uint32_t a = 0; a < 24; a += 3) {
    for (std::uint32_t b = 0; b < 24; b += 5) {
      EXPECT_EQ(fabric.hop_distance(a, b), fabric.hop_distance(b, a));
    }
  }
}

// find_nearest against the table it replaced: every server stable-sorted
// by hop distance from the source.
TEST(Fabric, FindNearestVisitsTheStableDistanceOrder) {
  for (std::uint32_t dcs = 1; dcs <= 3; ++dcs) {
    for (std::uint32_t leaves : {1u, 2u, 4u}) {
      for (std::uint32_t per_leaf : {1u, 3u, 8u}) {
        FabricConfig fc;
        fc.datacenters = dcs;
        fc.leaves_per_dc = leaves;
        fc.servers_per_leaf = per_leaf;
        const Fabric fabric(fc);
        const std::uint32_t m = fabric.server_count();
        for (std::uint32_t source = 0; source < m; ++source) {
          std::vector<std::uint32_t> expected(m);
          std::iota(expected.begin(), expected.end(), 0u);
          std::stable_sort(expected.begin(), expected.end(),
                           [&](std::uint32_t a, std::uint32_t b) {
                             return fabric.hop_distance(source, a) <
                                    fabric.hop_distance(source, b);
                           });
          std::vector<std::uint32_t> visited;
          const std::uint32_t none =
              fabric.find_nearest(source, [&](std::uint32_t j) {
                visited.push_back(j);
                return false;
              });
          ASSERT_EQ(visited, expected)
              << dcs << " DC x " << leaves << " leaves x " << per_leaf
              << " servers, source " << source;
          EXPECT_EQ(none, m);
          // The scan stops at, and returns, the first server that
          // satisfies the predicate.
          const std::uint32_t target = expected[m / 2];
          std::size_t calls = 0;
          EXPECT_EQ(fabric.find_nearest(source,
                                        [&](std::uint32_t j) {
                                          ++calls;
                                          return j == target;
                                        }),
                    target);
          EXPECT_EQ(calls, m / 2 + 1);
        }
      }
    }
  }
}

// The clipped find_nearest calls its predicate on exactly the servers of
// [first, last), in the order the unclipped visit reaches them, for every
// source and every range: all servers, a datacenter, a leaf, one server,
// an empty range, and ranges that cut across leaves and datacenters.
TEST(Fabric, ClippedFindNearestVisitsTheRangeInOrder) {
  for (std::uint32_t dcs = 1; dcs <= 3; ++dcs) {
    for (std::uint32_t per_leaf : {1u, 3u}) {
      FabricConfig fc;
      fc.datacenters = dcs;
      fc.leaves_per_dc = 2;
      fc.servers_per_leaf = per_leaf;
      const Fabric fabric(fc);
      const std::uint32_t m = fabric.server_count();
      const std::uint32_t dc_size = fabric.servers_per_datacenter();
      std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges = {
          {0, m}, {0, 0}, {m, m}, {2, 1}, {1, m - 1}, {m / 2, m}};
      for (std::uint32_t dc = 0; dc < dcs; ++dc) {
        ranges.emplace_back(dc * dc_size, (dc + 1) * dc_size);
      }
      for (std::uint32_t j = 0; j < m; ++j) {
        ranges.emplace_back(j, j + 1);
        ranges.emplace_back(j / per_leaf * per_leaf,
                            (j / per_leaf + 1) * per_leaf);
      }
      for (std::uint32_t source = 0; source < m; ++source) {
        std::vector<std::uint32_t> order;
        fabric.find_nearest(source, [&](std::uint32_t j) {
          order.push_back(j);
          return false;
        });
        for (const auto& [first, last] : ranges) {
          std::vector<std::uint32_t> expected;
          std::copy_if(order.begin(), order.end(),
                       std::back_inserter(expected),
                       [&](std::uint32_t j) { return first <= j && j < last; });
          std::vector<std::uint32_t> visited;
          const std::uint32_t none =
              fabric.find_nearest(source, first, last, [&](std::uint32_t j) {
                visited.push_back(j);
                return false;
              });
          ASSERT_EQ(visited, expected)
              << dcs << " DC x 2 leaves x " << per_leaf << " servers, source "
              << source << ", range [" << first << ", " << last << ")";
          EXPECT_EQ(none, m);
          // It stops at, and returns, the range's first hit.
          if (!expected.empty()) {
            const std::uint32_t target = expected.back();
            std::size_t calls = 0;
            EXPECT_EQ(fabric.find_nearest(source, first, last,
                                          [&](std::uint32_t j) {
                                            ++calls;
                                            return j == target;
                                          }),
                      target);
            EXPECT_EQ(calls, expected.size());
          }
        }
      }
    }
  }
}

TEST(Fabric, PathRedundancy) {
  const Fabric fabric(small_config());
  EXPECT_EQ(fabric.path_redundancy(0, 1), 1u);   // shared leaf
  EXPECT_EQ(fabric.path_redundancy(0, 5), 2u);   // one path per spine
  EXPECT_EQ(fabric.path_redundancy(0, 13), 2u);  // min(spines, cores)
}

TEST(Fabric, PathBandwidthBottleneck) {
  FabricConfig fc = small_config();
  fc.leaf_server_gbps = 10.0;
  fc.spine_leaf_gbps = 40.0;
  fc.core_spine_gbps = 5.0;  // artificially starved core
  const Fabric fabric(fc);
  EXPECT_DOUBLE_EQ(fabric.path_bandwidth_gbps(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(fabric.path_bandwidth_gbps(0, 5), 10.0);
  EXPECT_DOUBLE_EQ(fabric.path_bandwidth_gbps(0, 13), 5.0);
  EXPECT_DOUBLE_EQ(fabric.path_bandwidth_gbps(3, 3), 0.0);
}

TEST(Fabric, SummaryMentionsShape) {
  const Fabric fabric(small_config());
  const std::string s = fabric.summary();
  EXPECT_NE(s.find("2 DC"), std::string::npos);
  EXPECT_NE(s.find("24 servers"), std::string::npos);
}

// Parameterised structural sweep: server bookkeeping holds across fabric
// shapes.
class FabricShape
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t,
                                                 std::uint32_t, std::uint32_t>> {
};

TEST_P(FabricShape, StructureConsistent) {
  const auto [dcs, spines, leaves, per_leaf] = GetParam();
  FabricConfig fc;
  fc.datacenters = dcs;
  fc.spines_per_dc = spines;
  fc.leaves_per_dc = leaves;
  fc.servers_per_leaf = per_leaf;
  const Fabric fabric(fc);

  EXPECT_EQ(fabric.server_count(), dcs * leaves * per_leaf);
  // Every server maps back to a consistent (dc, leaf).
  for (std::uint32_t s = 0; s < fabric.server_count(); ++s) {
    const std::uint32_t dc = fabric.datacenter_of_server(s);
    const std::uint32_t leaf = fabric.leaf_of_server(s);
    EXPECT_LT(dc, dcs);
    EXPECT_LT(leaf, leaves);
    const auto on_leaf = fabric.servers_on_global_leaf(dc * leaves + leaf);
    EXPECT_NE(std::find(on_leaf.begin(), on_leaf.end(), s), on_leaf.end());
  }
  // Redundancy between distinct-leaf servers equals the spine count.
  if (leaves >= 2) {
    const std::uint32_t a = 0;
    const std::uint32_t b = per_leaf;  // first server of second leaf
    EXPECT_EQ(fabric.path_redundancy(a, b), spines);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FabricShape,
    ::testing::Values(std::make_tuple(1u, 2u, 2u, 4u),
                      std::make_tuple(2u, 2u, 4u, 8u),
                      std::make_tuple(3u, 4u, 8u, 16u),
                      std::make_tuple(4u, 2u, 1u, 2u),
                      std::make_tuple(2u, 8u, 16u, 4u)));

}  // namespace
}  // namespace iaas
