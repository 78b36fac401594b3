// Constraint verification (Eqs. 16-21) and the Fig. 5/6 helpers
// (exceedingDetection via the state's overload flags, isValidAllocation).
#include "model/constraint_checker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "model/placement_state.h"
#include "tests/test_util.h"

namespace iaas {
namespace {

using test::make_instance;

TEST(ConstraintChecker, FeasibleEmptyPlacement) {
  const Instance inst =
      make_instance(1, 2, {10.0, 10.0, 10.0}, {{5.0, 5.0, 5.0}});
  const ConstraintChecker checker(inst);
  const ViolationReport report = checker.check(Placement(1));
  EXPECT_TRUE(report.feasible());
  EXPECT_EQ(report.rejected_vms, 1u);
  EXPECT_EQ(report.total(), 0u);
}

TEST(ConstraintChecker, CapacityViolationCountsPerAttribute) {
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0},
      {{8.0, 2.0, 2.0}, {8.0, 2.0, 2.0}});
  const ConstraintChecker checker(inst);
  Placement p(2);
  p.assign(0, 0);
  p.assign(1, 0);  // cpu 16 > 10, ram/disk 4 <= 10
  const ViolationReport report = checker.check(p);
  EXPECT_EQ(report.capacity_violations, 1u);
  EXPECT_EQ(report.relation_violations, 0u);
  EXPECT_FALSE(report.feasible());
  PlacementState state(inst, {}, StateTracking::kViolationsOnly);
  state.rebuild(p);
  EXPECT_TRUE(state.server_overloaded(0));
  EXPECT_FALSE(state.server_overloaded(1));
}

TEST(ConstraintChecker, MultiAttributeOverloadCountsEach) {
  const Instance inst = make_instance(
      1, 1, {10.0, 10.0, 10.0}, {{11.0, 11.0, 2.0}});
  const ConstraintChecker checker(inst);
  Placement p(1);
  p.assign(0, 0);
  const ViolationReport report = checker.check(p);
  EXPECT_EQ(report.capacity_violations, 2u);  // cpu and ram
  PlacementState state(inst, {}, StateTracking::kViolationsOnly);
  state.rebuild(p);
  EXPECT_EQ(state.capacity_violations(), 2u);
  EXPECT_TRUE(state.server_overloaded(0));
}

TEST(ConstraintChecker, SameServerRelation) {
  const Instance inst = make_instance(
      1, 3, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
      {{RelationKind::kSameServer, {0, 1}}});
  const ConstraintChecker checker(inst);
  Placement p(2);
  p.assign(0, 0);
  p.assign(1, 0);
  EXPECT_TRUE(checker.check(p).feasible());
  p.assign(1, 1);
  const ViolationReport report = checker.check(p);
  EXPECT_EQ(report.relation_violations, 1u);
}

TEST(ConstraintChecker, SameDatacenterRelation) {
  const Instance inst = make_instance(
      2, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
      {{RelationKind::kSameDatacenter, {0, 1}}});
  const ConstraintChecker checker(inst);
  Placement p(2);
  p.assign(0, 0);
  p.assign(1, 1);  // same DC (servers 0,1 in DC 0), different servers: OK
  EXPECT_TRUE(checker.check(p).feasible());
  p.assign(1, 2);  // DC 1
  EXPECT_EQ(checker.check(p).relation_violations, 1u);
}

TEST(ConstraintChecker, DifferentServersRelation) {
  const Instance inst = make_instance(
      1, 3, {10.0, 10.0, 10.0},
      {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
      {{RelationKind::kDifferentServers, {0, 1, 2}}});
  const ConstraintChecker checker(inst);
  Placement p(3);
  p.assign(0, 0);
  p.assign(1, 1);
  p.assign(2, 2);
  EXPECT_TRUE(checker.check(p).feasible());
  p.assign(2, 1);  // duplicate server
  EXPECT_EQ(checker.check(p).relation_violations, 1u);
}

TEST(ConstraintChecker, DifferentDatacentersRelation) {
  const Instance inst = make_instance(
      2, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
      {{RelationKind::kDifferentDatacenters, {0, 1}}});
  const ConstraintChecker checker(inst);
  Placement p(2);
  p.assign(0, 0);  // DC 0
  p.assign(1, 2);  // DC 1
  EXPECT_TRUE(checker.check(p).feasible());
  p.assign(1, 1);  // also DC 0, different server: still a violation
  EXPECT_EQ(checker.check(p).relation_violations, 1u);
}

TEST(ConstraintChecker, RejectedMembersCannotViolateRelations) {
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
      {{RelationKind::kSameServer, {0, 1}}});
  const ConstraintChecker checker(inst);
  Placement p(2);
  p.assign(0, 0);  // peer rejected
  EXPECT_TRUE(checker.check(p).feasible());
  EXPECT_EQ(checker.check(p).rejected_vms, 1u);
}

TEST(IsValidAllocation, ChecksCapacity) {
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{6.0, 1.0, 1.0}, {6.0, 1.0, 1.0}});
  PlacementState state(inst, {}, StateTracking::kViolationsOnly);
  EXPECT_TRUE(state.is_valid_allocation(0, 0));
  state.apply_move(0, 0);
  EXPECT_FALSE(state.is_valid_allocation(1, 0));  // 12 > 10
  EXPECT_TRUE(state.is_valid_allocation(1, 1));
}

TEST(IsValidAllocation, NoIncrementWhenAlreadyThere) {
  const Instance inst =
      make_instance(1, 1, {10.0, 10.0, 10.0}, {{9.0, 9.0, 9.0}});
  PlacementState state(inst, {}, StateTracking::kViolationsOnly);
  state.apply_move(0, 0);
  // Re-validating the current host must not double-count the demand.
  EXPECT_TRUE(state.is_valid_allocation(0, 0));
}

TEST(IsValidAllocation, HonoursRelations) {
  const Instance inst = make_instance(
      2, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
      {{RelationKind::kDifferentDatacenters, {0, 1}}});
  PlacementState state(inst, {}, StateTracking::kViolationsOnly);
  state.apply_move(0, 0);  // DC 0
  EXPECT_FALSE(state.is_valid_allocation(1, 1));  // DC 0
  EXPECT_TRUE(state.is_valid_allocation(1, 2));   // DC 1
}

// Property: on generator-produced scenarios an all-rejected placement is
// always feasible, and single-VM placements never violate relations.
class CheckerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckerProperty, EmptyPlacementFeasible) {
  const Instance inst = test::make_random_instance(GetParam());
  const ConstraintChecker checker(inst);
  EXPECT_TRUE(checker.check(Placement(inst.n())).feasible());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerProperty,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));

// The relation check as first written — the assigned members' servers
// (or datacenters) copied out, sorted, and scanned for duplicates — kept
// as the reference for the in-place comparison.
bool reference_relation_satisfied(const Instance& inst,
                                  const PlacementConstraint& c,
                                  const Placement& placement) {
  std::vector<std::int32_t> servers;
  for (std::uint32_t k : c.vms) {
    if (placement.is_assigned(k)) {
      servers.push_back(placement.server_of(k));
    }
  }
  if (servers.size() < 2) {
    return true;
  }
  std::vector<std::uint32_t> dcs;
  for (std::int32_t s : servers) {
    dcs.push_back(inst.infra.datacenter_of(static_cast<std::size_t>(s)));
  }
  switch (c.kind) {
    case RelationKind::kSameServer:
      return std::all_of(servers.begin(), servers.end(),
                         [&](std::int32_t s) { return s == servers[0]; });
    case RelationKind::kSameDatacenter:
      return std::all_of(dcs.begin(), dcs.end(),
                         [&](std::uint32_t d) { return d == dcs[0]; });
    case RelationKind::kDifferentServers:
      std::sort(servers.begin(), servers.end());
      return std::adjacent_find(servers.begin(), servers.end()) ==
             servers.end();
    case RelationKind::kDifferentDatacenters:
      std::sort(dcs.begin(), dcs.end());
      return std::adjacent_find(dcs.begin(), dcs.end()) == dcs.end();
  }
  return true;
}

TEST(ConstraintChecker, RelationCheckMatchesSortReference) {
  // 3 DCs x 4 servers, 12 VMs: groups of up to every VM, placed on few
  // enough servers that shared hosts and datacenters are common.
  const Instance inst = make_instance(
      3, 4, {10.0, 10.0, 10.0},
      std::vector<std::vector<double>>(12, {1.0, 1.0, 1.0}));
  const ConstraintChecker checker(inst);
  Rng rng(17);
  const RelationKind kinds[] = {
      RelationKind::kSameServer, RelationKind::kSameDatacenter,
      RelationKind::kDifferentServers, RelationKind::kDifferentDatacenters};
  std::size_t satisfied = 0;
  std::size_t violated = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    Placement placement(inst.n());
    // Per trial, hosts come from a random prefix of the fleet, so both
    // same-* relations and different-* relations hold in some trials.
    const auto top = static_cast<std::int64_t>(rng.uniform_int(0, 11));
    for (std::size_t k = 0; k < inst.n(); ++k) {
      if (!rng.bernoulli(0.2)) {  // else rejected
        placement.assign(k, static_cast<std::int32_t>(rng.uniform_int(0, top)));
      }
    }
    std::vector<std::uint32_t> all(inst.n());
    std::iota(all.begin(), all.end(), 0u);
    rng.shuffle(all);
    PlacementConstraint c;
    c.kind = kinds[trial % 4];
    c.vms.assign(all.begin(),
                 all.begin() + static_cast<std::ptrdiff_t>(
                                   rng.uniform_int(0, 12)));
    const bool expected = reference_relation_satisfied(inst, c, placement);
    ASSERT_EQ(checker.relation_satisfied(c, placement), expected)
        << relation_name(c.kind) << ", trial " << trial;
    ++(expected ? satisfied : violated);
  }
  EXPECT_GT(satisfied, 1000u);
  EXPECT_GT(violated, 1000u);
}

}  // namespace
}  // namespace iaas
