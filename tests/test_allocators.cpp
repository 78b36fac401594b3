// The six allocators of the paper's comparison + ideal-point selection +
// registry.
#include <gtest/gtest.h>

#include "algo/cp_allocator.h"
#include "algo/cp_repair.h"
#include "algo/ideal_point.h"
#include "algo/nsga_allocators.h"
#include "algo/registry.h"
#include "algo/round_robin.h"
#include "model/constraint_checker.h"
#include "tests/test_util.h"

namespace iaas {
namespace {

using test::make_instance;
using test::make_random_instance;

EaAllocatorOptions quick_ea_options() {
  EaAllocatorOptions options;
  options.nsga.population_size = 20;
  options.nsga.max_evaluations = 400;
  options.nsga.reference_divisions = 4;
  return options;
}

SuiteOptions quick_suite() {
  SuiteOptions options;
  options.ea = quick_ea_options();
  options.cp.time_limit_seconds = 2.0;
  options.cp.max_backtracks = 20000;
  return options;
}

TEST(RoundRobin, SpreadsAcrossServers) {
  const Instance inst = make_instance(
      1, 4, {10.0, 10.0, 10.0},
      {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  RoundRobinAllocator rr;
  const AllocationResult result = rr.allocate(inst, 1);
  EXPECT_EQ(result.rejected, 0u);
  // Rotating cursor: four VMs on four distinct servers.
  std::vector<std::int32_t> servers;
  for (std::size_t k = 0; k < 4; ++k) {
    servers.push_back(result.placement.server_of(k));
  }
  std::sort(servers.begin(), servers.end());
  EXPECT_EQ(servers, (std::vector<std::int32_t>{0, 1, 2, 3}));
}

TEST(RoundRobin, RejectsWhatCannotFit) {
  const Instance inst = make_instance(
      1, 1, {10.0, 10.0, 10.0}, {{8.0, 8.0, 8.0}, {8.0, 8.0, 8.0}});
  RoundRobinAllocator rr;
  const AllocationResult result = rr.allocate(inst, 1);
  EXPECT_EQ(result.rejected, 1u);
  EXPECT_TRUE(result.raw_violations.feasible());  // RR never violates
}

TEST(RoundRobin, HonoursAffinityGroups) {
  const Instance inst = make_instance(
      1, 4, {10.0, 10.0, 10.0},
      {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
      {{RelationKind::kSameServer, {0, 2}}});
  RoundRobinAllocator rr;
  const AllocationResult result = rr.allocate(inst, 1);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_EQ(result.placement.server_of(0), result.placement.server_of(2));
}

TEST(CpAllocatorSmoke, OptimalOnEasyInstance) {
  const Instance inst = make_random_instance(1, 8, 12);
  CpSolverOptions options;
  options.time_limit_seconds = 5.0;
  CpAllocator cp(options);
  const AllocationResult result = cp.allocate(inst, 1);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_TRUE(result.raw_violations.feasible());
  EXPECT_TRUE(cp.last_stats().found_complete);
}

TEST(IdealPoint, PicksClosestToOrigin) {
  std::vector<Individual> front(3);
  front[0].objectives = {1.0, 0.0, 0.0};
  front[1].objectives = {0.1, 0.1, 0.1};  // nearly ideal
  front[2].objectives = {0.0, 1.0, 1.0};
  EXPECT_EQ(select_ideal_point(front), 1u);
}

TEST(IdealPoint, PrefersFeasibleMembers) {
  std::vector<Individual> front(2);
  front[0].objectives = {0.0, 0.0, 0.0};
  front[0].violations = 3;
  front[1].objectives = {5.0, 5.0, 5.0};
  front[1].violations = 0;
  EXPECT_EQ(select_ideal_point(front), 1u);
}

TEST(IdealPoint, SingleMemberFront) {
  std::vector<Individual> front(1);
  front[0].objectives = {3.0, 2.0, 1.0};
  EXPECT_EQ(select_ideal_point(front), 0u);
}

TEST(CpRepairOperator, RestoresFeasibility) {
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{8.0, 2.0, 2.0}, {8.0, 2.0, 2.0}});
  CpRepair repair(inst);
  Rng rng(1);
  std::vector<std::int32_t> genes = {0, 0};
  EXPECT_EQ(repair.repair(genes, rng), 0u);
  EXPECT_TRUE(ConstraintChecker(inst).check(Placement(genes)).feasible());
}

TEST(CpRepairOperator, FeasibleInputIsNoop) {
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  CpRepair repair(inst);
  Rng rng(2);
  std::vector<std::int32_t> genes = {0, 1};
  const auto original = genes;
  EXPECT_EQ(repair.repair(genes, rng), 0u);
  EXPECT_EQ(genes, original);
}

TEST(CpRepairOperator, KeepsGenesFullyAssignedOnFailure) {
  // Impossible demand: repair cannot succeed but must not leave holes.
  const Instance inst = make_instance(
      1, 1, {10.0, 10.0, 10.0}, {{8.0, 8.0, 8.0}, {8.0, 8.0, 8.0}});
  CpRepair repair(inst);
  Rng rng(3);
  std::vector<std::int32_t> genes = {0, 0};
  EXPECT_GT(repair.repair(genes, rng), 0u);
  for (std::int32_t g : genes) {
    EXPECT_GE(g, 0);
  }
}

TEST(Registry, AllSixAlgorithmsConstructible) {
  const SuiteOptions suite = quick_suite();
  EXPECT_EQ(all_algorithms().size(), 6u);
  for (AlgorithmId id : all_algorithms()) {
    const auto allocator = make_allocator(id, suite);
    ASSERT_NE(allocator, nullptr);
    EXPECT_EQ(allocator->name(), algorithm_name(id));
  }
}

class AllocatorContract : public ::testing::TestWithParam<AlgorithmId> {};

// The core contract of every allocator: sanitized output feasible,
// metrics self-consistent.
TEST_P(AllocatorContract, SanitizedFeasibleAndMetricsConsistent) {
  const Instance inst = make_random_instance(5, 8, 24);
  const auto allocator = make_allocator(GetParam(), quick_suite());
  const AllocationResult result = allocator->allocate(inst, 7);

  EXPECT_EQ(result.vm_count, inst.n());
  EXPECT_EQ(result.placement.vm_count(), inst.n());
  EXPECT_TRUE(ConstraintChecker(inst).check(result.placement).feasible());
  EXPECT_EQ(result.rejected, result.placement.rejected_count());
  EXPECT_GE(result.wall_seconds, 0.0);
  EXPECT_GE(result.rejection_rate(), 0.0);
  EXPECT_LE(result.rejection_rate(), 1.0);
  EXPECT_EQ(result.algorithm, algorithm_name(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllSix, AllocatorContract,
    ::testing::Values(AlgorithmId::kRoundRobin,
                      AlgorithmId::kConstraintProgramming,
                      AlgorithmId::kNsga2, AlgorithmId::kNsga3,
                      AlgorithmId::kNsga3Cp, AlgorithmId::kNsga3Tabu));

TEST(HybridAllocator, TabuVariantProducesZeroRawViolations) {
  ScenarioConfig cfg = ScenarioConfig::paper_scale(16);
  cfg.vms = 32;
  const Instance inst = ScenarioGenerator(cfg).generate(9);
  Nsga3TabuAllocator tabu(quick_ea_options());
  const AllocationResult result = tabu.allocate(inst, 11);
  EXPECT_EQ(result.raw_violations.total(), 0u);  // the paper's key claim
  EXPECT_EQ(result.rejected, 0u);
}

TEST(HybridAllocator, TopologyMigrationWeightChangesNothingWhenFresh) {
  // No previous placement: the migration term is zero either way.
  const Instance inst = make_random_instance(19, 8, 16);
  EaAllocatorOptions plain = quick_ea_options();
  EaAllocatorOptions weighted = quick_ea_options();
  weighted.objectives.topology_migration_weight = true;
  Nsga3TabuAllocator a(plain);
  Nsga3TabuAllocator b(weighted);
  const AllocationResult ra = a.allocate(inst, 23);
  const AllocationResult rb = b.allocate(inst, 23);
  EXPECT_DOUBLE_EQ(ra.objectives.migration_cost, 0.0);
  EXPECT_DOUBLE_EQ(rb.objectives.migration_cost, 0.0);
}

TEST(HybridAllocator, MigrationTermSteersTowardStability) {
  // Strongly preplaced instance: the hybrid should keep most VMs where
  // they are rather than pay Eq. 26 for reshuffling.
  ScenarioConfig cfg = ScenarioConfig::paper_scale(16);
  cfg.preplaced_fraction = 1.0;
  cfg.migration_cost_min = 50.0;  // make moving very expensive
  cfg.migration_cost_max = 100.0;
  const Instance inst = ScenarioGenerator(cfg).generate(29);
  Nsga3TabuAllocator allocator(quick_ea_options());
  const AllocationResult r = allocator.allocate(inst, 31);
  std::size_t stayed = 0;
  std::size_t preplaced = 0;
  for (std::size_t k = 0; k < inst.n(); ++k) {
    if (!inst.previous.is_assigned(k)) {
      continue;
    }
    ++preplaced;
    if (r.placement.is_assigned(k) &&
        r.placement.server_of(k) == inst.previous.server_of(k)) {
      ++stayed;
    }
  }
  ASSERT_GT(preplaced, 0u);
  EXPECT_GT(static_cast<double>(stayed) / static_cast<double>(preplaced),
            0.5);
}

}  // namespace
}  // namespace iaas
