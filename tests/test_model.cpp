// Core model records: Server, VmRequest, Infrastructure, Placement,
// Instance (paper Table I).
#include <gtest/gtest.h>

#include "model/attributes.h"
#include "model/instance.h"
#include "tests/test_util.h"

namespace iaas {
namespace {

using test::make_instance;
using test::make_server;
using test::make_vm;

TEST(Server, EffectiveCapacityAppliesFactor) {
  Server s = make_server(0, {100.0, 200.0, 300.0});
  s.factor = {0.9, 0.5, 1.0};
  EXPECT_DOUBLE_EQ(s.effective_capacity(0), 90.0);
  EXPECT_DOUBLE_EQ(s.effective_capacity(1), 100.0);
  EXPECT_DOUBLE_EQ(s.effective_capacity(2), 300.0);
}

TEST(Server, ValidAcceptsWellFormed) {
  const Server s = make_server(0, {16.0, 64.0, 1000.0});
  EXPECT_TRUE(s.valid(3));
  EXPECT_FALSE(s.valid(2));  // wrong attribute count
}

TEST(Server, ValidRejectsOutOfRangeValues) {
  Server s = make_server(0, {16.0, 64.0, 1000.0});
  s.factor[1] = 1.5;  // factor must be <= 1
  EXPECT_FALSE(s.valid(3));
  s = make_server(0, {16.0, 64.0, 1000.0});
  s.capacity[0] = 0.0;  // capacity must be positive
  EXPECT_FALSE(s.valid(3));
  s = make_server(0, {16.0, 64.0, 1000.0});
  s.max_load[2] = 1.0;  // L^M in [0,1)
  EXPECT_FALSE(s.valid(3));
  s = make_server(0, {16.0, 64.0, 1000.0});
  s.opex = -1.0;
  EXPECT_FALSE(s.valid(3));
}

TEST(VmRequest, ValidChecksRanges) {
  VmRequest vm = make_vm({2.0, 4.0, 40.0});
  EXPECT_TRUE(vm.valid(3));
  EXPECT_FALSE(vm.valid(4));
  vm.qos_guarantee = 1.0;  // must be < 1
  EXPECT_FALSE(vm.valid(3));
  vm = make_vm({2.0, -1.0, 40.0});
  EXPECT_FALSE(vm.valid(3));
}

TEST(Placement, RejectedByDefault) {
  Placement p(5);
  EXPECT_EQ(p.vm_count(), 5u);
  EXPECT_EQ(p.rejected_count(), 5u);
  EXPECT_EQ(p.assigned_count(), 0u);
  EXPECT_FALSE(p.is_assigned(0));
}

TEST(Placement, AssignAndReject) {
  Placement p(3);
  p.assign(0, 7);
  p.assign(2, 1);
  EXPECT_TRUE(p.is_assigned(0));
  EXPECT_EQ(p.server_of(0), 7);
  EXPECT_EQ(p.rejected_count(), 1u);
  p.reject(0);
  EXPECT_EQ(p.rejected_count(), 2u);
}

TEST(Placement, EqualityAndGenes) {
  Placement a(std::vector<std::int32_t>{1, 2, Placement::kRejected});
  Placement b(std::vector<std::int32_t>{1, 2, Placement::kRejected});
  EXPECT_EQ(a, b);
  b.assign(2, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.genes().size(), 3u);
}

TEST(Infrastructure, ShorthandsAndDatacenters) {
  const Instance inst = make_instance(2, 3, {16.0, 64.0, 1000.0},
                                      {{1.0, 2.0, 20.0}});
  EXPECT_EQ(inst.g(), 2u);
  EXPECT_EQ(inst.m(), 6u);
  EXPECT_EQ(inst.n(), 1u);
  EXPECT_EQ(inst.h(), 3u);
  // Datacenter 1 holds the contiguous range 3..5.
  for (std::size_t j = 0; j < inst.m(); ++j) {
    EXPECT_EQ(inst.infra.datacenter_of(j), j < 3 ? 0u : 1u) << "server " << j;
  }
}

TEST(Infrastructure, TotalEffectiveCapacity) {
  const Instance inst =
      make_instance(1, 4, {10.0, 20.0, 30.0}, {{1.0, 1.0, 1.0}});
  // Test helper uses factor 1.0.
  EXPECT_DOUBLE_EQ(inst.infra.total_effective_capacity(0), 40.0);
  EXPECT_DOUBLE_EQ(inst.infra.total_effective_capacity(2), 120.0);
}

TEST(Instance, PreviousPlacementStartsEmpty) {
  const Instance inst = make_instance(1, 2, {16.0, 64.0, 1000.0},
                                      {{1.0, 2.0, 20.0}, {2.0, 4.0, 40.0}});
  EXPECT_EQ(inst.previous.vm_count(), 2u);
  EXPECT_EQ(inst.previous.rejected_count(), 2u);
}

TEST(RequestSet, ValidCatchesBadConstraints) {
  RequestSet rs;
  rs.vms = {make_vm({1.0, 1.0, 1.0}), make_vm({1.0, 1.0, 1.0})};
  rs.constraints.push_back({RelationKind::kSameServer, {0, 1}});
  EXPECT_TRUE(rs.valid(3));
  rs.constraints.push_back({RelationKind::kSameServer, {0}});  // too small
  EXPECT_FALSE(rs.valid(3));
  rs.constraints.back() = {RelationKind::kSameServer, {0, 5}};  // bad index
  EXPECT_FALSE(rs.valid(3));
}

TEST(Attributes, CanonicalNames) {
  EXPECT_EQ(attribute_name(kCpu), "cpu");
  EXPECT_EQ(attribute_name(kRam), "ram");
  EXPECT_EQ(attribute_name(kDisk), "disk");
  EXPECT_EQ(attribute_name(5), "attr5");
}

TEST(Relations, Names) {
  EXPECT_EQ(relation_name(RelationKind::kSameServer), "same-server");
  EXPECT_EQ(relation_name(RelationKind::kSameDatacenter), "same-datacenter");
  EXPECT_EQ(relation_name(RelationKind::kDifferentServers),
            "different-servers");
  EXPECT_EQ(relation_name(RelationKind::kDifferentDatacenters),
            "different-datacenters");
}

}  // namespace
}  // namespace iaas
