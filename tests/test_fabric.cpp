// Spine-leaf fabric substrate (paper Fig. 1).
#include "topology/fabric.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>
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
  // Nodes: 2 cores + per DC (2 spines + 3 leaves + 12 servers).
  EXPECT_EQ(fabric.nodes().size(), 2u + 2u * (2u + 3u + 12u));
}

TEST(Fabric, LinkCountMatchesClosWiring) {
  const FabricConfig fc = small_config();
  const Fabric fabric(fc);
  // core-spine: cores*spines per DC; spine-leaf: spines*leaves per DC;
  // leaf-server: servers per DC.
  const std::size_t expected =
      fc.datacenters * (fc.cores * fc.spines_per_dc +
                        fc.spines_per_dc * fc.leaves_per_dc +
                        fc.leaves_per_dc * fc.servers_per_leaf);
  EXPECT_EQ(fabric.links().size(), expected);
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

TEST(Fabric, ServersOnLeaf) {
  const Fabric fabric(small_config());
  const auto servers = fabric.servers_on_leaf(1, 2);
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

TEST(Fabric, PathRedundancy) {
  const Fabric fabric(small_config());
  EXPECT_EQ(fabric.path_redundancy(0, 1), 1u);   // shared leaf
  EXPECT_EQ(fabric.path_redundancy(0, 5), 2u);   // one path per spine
  EXPECT_EQ(fabric.path_redundancy(0, 13), 2u);  // min(spines, cores)
}

TEST(Fabric, BisectionBandwidth) {
  const Fabric fabric(small_config());
  // spines * leaves * spine_leaf_gbps = 2 * 3 * 40.
  EXPECT_DOUBLE_EQ(fabric.bisection_bandwidth_gbps(0), 240.0);
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

// Parameterised structural sweep: node/server bookkeeping holds across
// fabric shapes.
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
    const auto on_leaf = fabric.servers_on_leaf(dc, leaf);
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
