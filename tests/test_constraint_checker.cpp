// Constraint verification (Eqs. 16-21) and the Fig. 5/6 helpers
// (exceedingDetection via overloaded_servers, isValidAllocation).
#include "model/constraint_checker.h"

#include <gtest/gtest.h>

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
  EXPECT_EQ(report.overloaded_servers, (std::vector<std::uint32_t>{0}));
  EXPECT_FALSE(report.feasible());
}

TEST(ConstraintChecker, MultiAttributeOverloadCountsEach) {
  const Instance inst = make_instance(
      1, 1, {10.0, 10.0, 10.0}, {{11.0, 11.0, 2.0}});
  const ConstraintChecker checker(inst);
  Placement p(1);
  p.assign(0, 0);
  const ViolationReport report = checker.check(p);
  EXPECT_EQ(report.capacity_violations, 2u);  // cpu and ram
  EXPECT_EQ(report.overloaded_servers.size(), 1u);
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

}  // namespace
}  // namespace iaas
