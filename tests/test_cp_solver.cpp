// Constraint-programming solver (the Choco substitute): feasibility,
// optimality on tiny instances (vs brute force), budgets and fallbacks.
#include "lp/cp_solver.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <vector>

#include "model/constraint_checker.h"
#include "tests/test_util.h"

namespace iaas {
namespace {

using test::make_instance;
using test::make_random_instance;

// Exhaustive minimum of the linear cost (usage + opex-per-used-server +
// migration) over all complete feasible placements.
double brute_force_optimum(const Instance& inst) {
  const ConstraintChecker checker(inst);
  PlacementState state(inst);
  double best = std::numeric_limits<double>::infinity();
  Placement p(inst.n());
  std::function<void(std::size_t)> rec = [&](std::size_t k) {
    if (k == inst.n()) {
      if (checker.check(p).feasible()) {
        state.rebuild(p);
        const ObjectiveVector obj = state.objectives();
        best = std::min(best, obj.usage_cost + obj.migration_cost);
      }
      return;
    }
    for (std::size_t j = 0; j < inst.m(); ++j) {
      p.assign(k, static_cast<std::int32_t>(j));
      rec(k + 1);
    }
    p.reject(k);
  };
  rec(0);
  return best;
}

TEST(CpSolver, FindsFeasibleCompleteAssignment) {
  const Instance inst = make_instance(
      1, 3, {10.0, 10.0, 10.0},
      {{4.0, 4.0, 4.0}, {4.0, 4.0, 4.0}, {4.0, 4.0, 4.0}});
  CpSolver solver(inst);
  CpStats stats;
  const Placement p = solver.solve(&stats);
  EXPECT_TRUE(stats.found_complete);
  EXPECT_EQ(p.rejected_count(), 0u);
  EXPECT_TRUE(ConstraintChecker(inst).check(p).feasible());
}

TEST(CpSolver, MatchesBruteForceOptimumOnTinyInstances) {
  std::vector<Instance> instances;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    instances.push_back(make_random_instance(seed, 4, 5));
  }
  // Four servers (two per leaf; by default each datacenter rounds up to
  // one 8-server leaf), six VMs, each instance with a relationship
  // group: the optimum under groups, against 4^6 exhaustive leaves.
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    ScenarioConfig cfg = ScenarioConfig::paper_scale(4);
    cfg.servers_per_leaf = 2;
    cfg.vms = 6;
    cfg.constrained_fraction = 0.6;
    instances.push_back(ScenarioGenerator(cfg).generate(seed));
    ASSERT_EQ(instances.back().m(), 4u);
    ASSERT_FALSE(instances.back().requests.constraints.empty());
  }
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    CpSolver solver(inst);
    CpStats stats;
    const Placement p = solver.solve(&stats);
    ASSERT_TRUE(stats.found_complete) << "instance " << i;
    EXPECT_TRUE(stats.proved_optimal) << "instance " << i;

    const ObjectiveVector obj = test::objectives_of(inst, p);
    const double expected = brute_force_optimum(inst);
    EXPECT_NEAR(obj.usage_cost + obj.migration_cost, expected, 1e-6)
        << "instance " << i;
  }
}

// A complete, feasible answer proved optimal within the default budget
// (every seed needs at most a few thousand nodes).
class CpProvesOptimum : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CpProvesOptimum, CompleteFeasibleAndProved) {
  const Instance inst = make_random_instance(GetParam(), 8, 10);
  CpStats stats;
  const Placement p = CpSolver(inst).solve(&stats);
  EXPECT_TRUE(stats.found_complete);
  EXPECT_TRUE(stats.proved_optimal);
  EXPECT_EQ(p.rejected_count(), 0u);
  EXPECT_TRUE(ConstraintChecker(inst).check(p).feasible());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpProvesOptimum,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(CpSolver, RespectsRelationshipConstraints) {
  const Instance inst = make_instance(
      2, 2, {10.0, 10.0, 10.0},
      {{2.0, 2.0, 2.0}, {2.0, 2.0, 2.0}, {2.0, 2.0, 2.0}, {2.0, 2.0, 2.0}},
      {{RelationKind::kSameServer, {0, 1}},
       {RelationKind::kDifferentDatacenters, {2, 3}}});
  CpSolver solver(inst);
  const Placement p = solver.solve();
  ASSERT_EQ(p.rejected_count(), 0u);
  EXPECT_EQ(p.server_of(0), p.server_of(1));
  EXPECT_NE(inst.infra.datacenter_of(static_cast<std::size_t>(p.server_of(2))),
            inst.infra.datacenter_of(static_cast<std::size_t>(p.server_of(3))));
}

TEST(CpSolver, PrefersCheapServers) {
  // Two servers, one expensive; a single small VM must land on the cheap
  // one.
  FabricConfig fc;
  fc.datacenters = 1;
  fc.leaves_per_dc = 1;
  fc.servers_per_leaf = 2;
  std::vector<Server> servers = {
      test::make_server(0, {10.0, 10.0, 10.0}, /*opex=*/50.0, /*usage=*/5.0),
      test::make_server(0, {10.0, 10.0, 10.0}, /*opex=*/5.0, /*usage=*/1.0)};
  RequestSet requests;
  requests.vms.push_back(test::make_vm({1.0, 1.0, 1.0}));
  Instance inst(Infrastructure(fc, std::move(servers)), std::move(requests));

  CpSolver solver(inst);
  const Placement p = solver.solve();
  EXPECT_EQ(p.server_of(0), 1);
}

TEST(CpSolver, GreedyFallbackRejectsOversizedVm) {
  // VM demands more than any server offers: must be rejected, not placed.
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{20.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  CpSolver solver(inst);
  CpStats stats;
  const Placement p = solver.solve(&stats);
  EXPECT_FALSE(stats.found_complete);
  EXPECT_FALSE(p.is_assigned(0));
  EXPECT_TRUE(p.is_assigned(1));
  EXPECT_TRUE(ConstraintChecker(inst).check(p).feasible());
}

TEST(CpSolver, GreedyWithRejectionAlwaysFeasible) {
  for (std::uint64_t seed : {11u, 22u, 33u}) {
    const Instance inst = make_random_instance(seed, 8, 40);
    CpSolver solver(inst);
    const Placement p = solver.greedy_with_rejection();
    EXPECT_TRUE(ConstraintChecker(inst).check(p).feasible());
  }
}

TEST(CpSolver, HonoursBacktrackBudget) {
  CpSolverOptions options;
  options.max_backtracks = 10;
  const Instance inst = make_random_instance(5, 8, 16);
  CpSolver solver(inst, options);
  CpStats stats;
  solver.solve(&stats);
  EXPECT_LE(stats.backtracks, 10u + 1u);
}

TEST(CpSolver, InfiniteTimeLimitSpendsTheBacktrackBudget) {
  CpSolverOptions options;
  options.time_limit_seconds = std::numeric_limits<double>::infinity();
  options.max_backtracks = 10;
  const Instance inst = make_random_instance(5, 8, 16);
  CpSolver solver(inst, options);
  CpStats stats;
  solver.solve(&stats);
  EXPECT_FALSE(stats.timed_out);
  EXPECT_EQ(stats.backtracks, 10u);
}

TEST(CpSolver, HonoursDeadline) {
  CpSolverOptions options;
  options.time_limit_seconds = 0.0;  // already expired
  const Instance inst = make_random_instance(6, 8, 16);
  CpSolver solver(inst, options);
  CpStats stats;
  const Placement p = solver.solve(&stats);
  EXPECT_TRUE(stats.timed_out);
  // Fallback still yields a feasible (possibly rejecting) placement.
  EXPECT_TRUE(ConstraintChecker(inst).check(p).feasible());
}

// Property: branch-and-bound never returns a costlier complete solution
// than the greedy first-fit (greedy is one branch of the search tree).
class CpVsGreedy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CpVsGreedy, OptimizedNeverWorseThanGreedy) {
  const Instance inst = make_random_instance(GetParam(), 8, 16);
  CpSolver solver(inst);
  CpStats stats;
  const Placement solved = solver.solve(&stats);
  if (!stats.found_complete) {
    GTEST_SKIP() << "instance not completable";
  }
  const Placement greedy = solver.greedy_with_rejection();
  if (greedy.rejected_count() > 0) {
    return;  // greedy rejected; costs not comparable
  }
  const ObjectiveVector a = test::objectives_of(inst, solved);
  const ObjectiveVector b = test::objectives_of(inst, greedy);
  EXPECT_LE(a.usage_cost + a.migration_cost,
            b.usage_cost + b.migration_cost + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpVsGreedy,
                         ::testing::Values(101u, 102u, 103u, 104u, 105u,
                                           106u));

TEST(CpSolver, MigrationAwareCostPrefersStaying) {
  Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}});
  inst.previous.assign(0, 1);  // currently on server 1 (identical servers)
  CpSolver solver(inst);
  const Placement p = solver.solve();
  EXPECT_EQ(p.server_of(0), 1);  // moving would add M_k for nothing
}

}  // namespace
}  // namespace iaas
