// Two-phase simplex and the LP relaxation lower bound.
#include "lp/simplex.h"

#include <gtest/gtest.h>

#include "lp/cp_solver.h"
#include "lp/lin_model.h"
#include "tests/test_util.h"

namespace iaas {
namespace {

LinExpr expr(std::initializer_list<std::pair<std::uint32_t, double>> terms) {
  LinExpr e;
  for (const auto& [var, coeff] : terms) {
    e.add({var}, coeff);
  }
  return e;
}

TEST(Simplex, TextbookMaximisation) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18  (Hillier/Lieberman)
  // -> x = 2, y = 6, objective 36.  As minimisation of the negation.
  SimplexSolver lp(2);
  lp.set_objective({0}, -3.0);
  lp.set_objective({1}, -5.0);
  lp.add_constraint(expr({{0, 1.0}}), Relation::kLessEqual, 4.0);
  lp.add_constraint(expr({{1, 2.0}}), Relation::kLessEqual, 12.0);
  lp.add_constraint(expr({{0, 3.0}, {1, 2.0}}), Relation::kLessEqual, 18.0);
  const LpSolution s = lp.solve();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-9);
  EXPECT_NEAR(s.values[0], 2.0, 1e-9);
  EXPECT_NEAR(s.values[1], 6.0, 1e-9);
}

TEST(Simplex, EqualityAndGreaterEqual) {
  // min x + 2y st x + y = 10, x >= 3  -> x = 10, y = 0? No: y >= 0,
  // minimise x + 2y on x + y = 10 pushes y down: x = 10, y = 0, obj 10.
  SimplexSolver lp(2);
  lp.set_objective({0}, 1.0);
  lp.set_objective({1}, 2.0);
  lp.add_constraint(expr({{0, 1.0}, {1, 1.0}}), Relation::kEqual, 10.0);
  lp.add_constraint(expr({{0, 1.0}}), Relation::kGreaterEqual, 3.0);
  const LpSolution s = lp.solve();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 10.0, 1e-9);
  EXPECT_NEAR(s.values[0], 10.0, 1e-9);
  EXPECT_NEAR(s.values[1], 0.0, 1e-9);
}

TEST(Simplex, DetectsInfeasibility) {
  SimplexSolver lp(1);
  lp.set_objective({0}, 1.0);
  lp.add_constraint(expr({{0, 1.0}}), Relation::kLessEqual, 1.0);
  lp.add_constraint(expr({{0, 1.0}}), Relation::kGreaterEqual, 2.0);
  EXPECT_EQ(lp.solve().status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  SimplexSolver lp(1);
  lp.set_objective({0}, -1.0);  // minimise -x with x unbounded above
  lp.add_constraint(expr({{0, 1.0}}), Relation::kGreaterEqual, 0.0);
  EXPECT_EQ(lp.solve().status, LpStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalised) {
  // -x <= -5  ==  x >= 5; minimise x -> 5.
  SimplexSolver lp(1);
  lp.set_objective({0}, 1.0);
  lp.add_constraint(expr({{0, -1.0}}), Relation::kLessEqual, -5.0);
  const LpSolution s = lp.solve();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Redundant constraints inducing degeneracy; Bland's rule must still
  // terminate at the optimum.
  SimplexSolver lp(2);
  lp.set_objective({0}, -1.0);
  lp.set_objective({1}, -1.0);
  lp.add_constraint(expr({{0, 1.0}, {1, 1.0}}), Relation::kLessEqual, 1.0);
  lp.add_constraint(expr({{0, 1.0}, {1, 1.0}}), Relation::kLessEqual, 1.0);
  lp.add_constraint(expr({{0, 1.0}}), Relation::kLessEqual, 1.0);
  const LpSolution s = lp.solve();
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -1.0, 1e-9);
}

TEST(Simplex, StatusNames) {
  EXPECT_EQ(lp_status_name(LpStatus::kOptimal), "optimal");
  EXPECT_EQ(lp_status_name(LpStatus::kInfeasible), "infeasible");
  EXPECT_EQ(lp_status_name(LpStatus::kUnbounded), "unbounded");
  EXPECT_EQ(lp_status_name(LpStatus::kIterationLimit), "iteration-limit");
}

// The relaxation bound must (a) solve, (b) lower-bound the CP solver's
// integral optimum on small instances.
class LpRelaxationBound : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpRelaxationBound, LowerBoundsIntegralOptimum) {
  const Instance inst = test::make_random_instance(GetParam(), 8, 10);
  const LinModel model(inst);
  const LpSolution relax = solve_lp_relaxation(model);
  ASSERT_EQ(relax.status, LpStatus::kOptimal)
      << lp_status_name(relax.status);

  CpSolver solver(inst);
  CpStats stats;
  const Placement solved = solver.solve(&stats);
  ASSERT_TRUE(stats.found_complete);
  const ObjectiveVector obj = test::objectives_of(inst, solved);
  const double integral = obj.usage_cost + obj.migration_cost;
  EXPECT_LE(relax.objective, integral + 1e-6);
  // And the bound is meaningful (positive cost for non-empty demand).
  EXPECT_GT(relax.objective, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpRelaxationBound,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(LpRelaxation, TightWhenConsolidationIsFree) {
  // One VM, identical servers: the LP can fractionally spread y but the
  // cost of one server's usage is unavoidable; bound equals optimum.
  const Instance inst = test::make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}});
  const LinModel model(inst);
  const LpSolution relax = solve_lp_relaxation(model);
  ASSERT_EQ(relax.status, LpStatus::kOptimal);
  // usage (1.0) + fractional opex (>= demand/capacity * opex).
  EXPECT_GT(relax.objective, 1.0);
}

}  // namespace
}  // namespace iaas
