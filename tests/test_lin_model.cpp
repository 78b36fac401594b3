// ILP formulation (Eqs. 4-21): structural checks and cross-validation of
// the independent encoding against ConstraintChecker / PlacementState.
#include "lp/lin_model.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "model/constraint_checker.h"
#include "tests/test_util.h"

namespace iaas {
namespace {

using test::make_instance;

TEST(LinModel, VariableCountIsXPlusY) {
  const Instance inst = make_instance(
      1, 3, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  const LinModel model(inst);
  EXPECT_EQ(model.variable_count(), 3u * 2u + 3u);
}

TEST(LinModel, VariableHandlesDistinct) {
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  const LinModel model(inst);
  EXPECT_NE(model.x(0, 0).index, model.x(0, 1).index);
  EXPECT_NE(model.x(0, 0).index, model.x(1, 0).index);
  EXPECT_NE(model.x(1, 1).index, model.y(0).index);
  EXPECT_LT(model.y(1).index, model.variable_count());
}

TEST(LinModel, FeasiblePlacementSatisfiesAllConstraints) {
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{4.0, 4.0, 4.0}, {4.0, 4.0, 4.0}},
      {{RelationKind::kDifferentServers, {0, 1}}});
  const LinModel model(inst);
  Placement p(2);
  p.assign(0, 0);
  p.assign(1, 1);
  EXPECT_EQ(model.violated_count(model.encode(p)), 0u);
}

TEST(LinModel, CapacityViolationDetected) {
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{8.0, 1.0, 1.0}, {8.0, 1.0, 1.0}});
  const LinModel model(inst);
  Placement p(2);
  p.assign(0, 0);
  p.assign(1, 0);
  EXPECT_GT(model.violated_count(model.encode(p)), 0u);
}

TEST(LinModel, RejectionBreaksAssignmentConstraint) {
  const Instance inst =
      make_instance(1, 1, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}});
  const LinModel model(inst);
  // Rejected VM: Eq. 17 (sum_j x = 1) cannot hold.
  EXPECT_EQ(model.violated_count(model.encode(Placement(1))), 1u);
}

TEST(LinModel, SameServerLinearisationMatchesChecker) {
  const Instance inst = make_instance(
      1, 3, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
      {{RelationKind::kSameServer, {0, 1}}});
  const LinModel model(inst);
  Placement together(2);
  together.assign(0, 1);
  together.assign(1, 1);
  EXPECT_EQ(model.violated_count(model.encode(together)), 0u);
  Placement apart(2);
  apart.assign(0, 0);
  apart.assign(1, 2);
  EXPECT_GT(model.violated_count(model.encode(apart)), 0u);
}

TEST(LinModel, ObjectiveMatchesStateLinearTerms) {
  // Low loads -> zero downtime; ILP objective must equal usage+migration.
  Instance inst = make_instance(
      1, 3, {100.0, 100.0, 100.0},
      {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  inst.previous.assign(0, 0);
  inst.previous.assign(1, 0);
  const LinModel model(inst);

  Placement p(3);
  p.assign(0, 0);  // stays
  p.assign(1, 2);  // migrates
  p.assign(2, 2);  // boots
  const ObjectiveVector obj = test::objectives_of(inst, p);
  ASSERT_DOUBLE_EQ(obj.downtime_cost, 0.0);
  EXPECT_NEAR(model.objective_value(model.encode(p)),
              obj.usage_cost + obj.migration_cost, 1e-9);
}

// Property: the ILP encoding and the ConstraintChecker agree on
// feasibility for random full placements of generated scenarios.
class LinModelConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinModelConsistency, FeasibilityAgreesWithChecker) {
  const Instance inst = test::make_random_instance(GetParam(), 16, 24);
  const LinModel model(inst);
  const ConstraintChecker checker(inst);
  Rng rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 20; ++trial) {
    Placement p(inst.n());
    for (std::size_t k = 0; k < inst.n(); ++k) {
      p.assign(k, static_cast<std::int32_t>(rng.uniform_index(inst.m())));
    }
    const bool checker_feasible = checker.check(p).feasible();
    const bool model_feasible =
        model.violated_count(model.encode(p)) == 0;
    EXPECT_EQ(checker_feasible, model_feasible)
        << "trial " << trial << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinModelConsistency,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace iaas
