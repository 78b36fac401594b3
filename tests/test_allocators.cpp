// The six allocators of the paper's comparison + ideal-point selection +
// registry.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

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

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// A repaired state must be exactly a fresh rebuild of its placement:
// every used cell, flag and counter, and under full tracking every
// objective, bit for bit.
void expect_fresh_rebuild(const PlacementState& state,
                          StateTracking tracking) {
  const Instance& inst = state.instance();
  PlacementState fresh(inst, {}, tracking);
  fresh.rebuild(state.placement().genes());
  EXPECT_EQ(state.applied_moves(), 0u);
  EXPECT_EQ(state.capacity_violations(), fresh.capacity_violations());
  EXPECT_EQ(state.relation_violations(), fresh.relation_violations());
  for (std::size_t j = 0; j < inst.m(); ++j) {
    EXPECT_EQ(state.server_overloaded(j), fresh.server_overloaded(j));
    for (std::size_t l = 0; l < inst.h(); ++l) {
      EXPECT_TRUE(same_bits(state.used()(j, l), fresh.used()(j, l)))
          << "server " << j << " attribute " << l;
    }
  }
  for (std::size_t c = 0; c < inst.requests.constraints.size(); ++c) {
    EXPECT_EQ(state.relation_satisfied(c), fresh.relation_satisfied(c));
  }
  if (tracking == StateTracking::kFull) {
    const auto got = state.objectives().as_array();
    const auto want = fresh.objectives().as_array();
    for (std::size_t o = 0; o < got.size(); ++o) {
      EXPECT_TRUE(same_bits(got[o], want[o])) << "objective " << o;
    }
  }
}

struct CpRepairOutcome {
  std::vector<std::int32_t> genes;
  std::uint32_t remaining = 0;
};

// Repairs `genes` through CpRepair's genes entry and through its state
// entry in both tracking modes, from the same seed.  Every run must give
// the same genes, return value and next RNG draw, and leave its state a
// fresh rebuild of the result; the genes entry's outcome is returned.
CpRepairOutcome cp_repair_every_entry(const Instance& inst,
                                      const std::vector<std::int32_t>& genes,
                                      std::uint64_t seed) {
  const CpRepair repair(inst);
  CpRepairOutcome out{genes, 0};
  Rng rng(seed);
  out.remaining = repair.repair(out.genes, rng);
  const std::uint64_t next_draw = rng.next_u64();
  for (const StateTracking tracking :
       {StateTracking::kFull, StateTracking::kViolationsOnly}) {
    SCOPED_TRACE(tracking == StateTracking::kFull ? "full" : "violations");
    PlacementState state(inst, {}, tracking);
    state.rebuild(genes);
    Rng state_rng(seed);
    EXPECT_EQ(repair.repair_state(state, state_rng), out.remaining);
    EXPECT_EQ(state_rng.next_u64(), next_draw);
    EXPECT_EQ(state.placement().genes(), out.genes);
    EXPECT_EQ(state.total_violations(), out.remaining);
    expect_fresh_rebuild(state, tracking);
  }
  return out;
}

TEST(CpRepairOperator, RestoresFeasibility) {
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{8.0, 2.0, 2.0}, {8.0, 2.0, 2.0}});
  const CpRepairOutcome out = cp_repair_every_entry(inst, {0, 0}, 1);
  EXPECT_EQ(out.remaining, 0u);
  EXPECT_TRUE(ConstraintChecker(inst).check(Placement(out.genes)).feasible());
}

TEST(CpRepairOperator, FeasibleInputIsNoop) {
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  const std::vector<std::int32_t> original = {0, 1};
  const CpRepairOutcome out = cp_repair_every_entry(inst, original, 2);
  EXPECT_EQ(out.remaining, 0u);
  EXPECT_EQ(out.genes, original);
}

TEST(CpRepairOperator, KeepsGenesFullyAssignedOnFailure) {
  // Impossible demand: repair cannot succeed but must not leave holes,
  // and a failed search leaves every entry at the original placement.
  const Instance inst = make_instance(
      1, 1, {10.0, 10.0, 10.0}, {{8.0, 8.0, 8.0}, {8.0, 8.0, 8.0}});
  const std::vector<std::int32_t> original = {0, 0};
  const CpRepairOutcome out = cp_repair_every_entry(inst, original, 3);
  EXPECT_GT(out.remaining, 0u);
  EXPECT_EQ(out.genes, original);
  for (std::int32_t g : out.genes) {
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

TEST(HybridAllocator, MigrationTermSteersTowardStability) {
  // Strongly preplaced instance: the hybrid should keep most VMs where
  // they are rather than pay Eq. 26 for reshuffling.
  ScenarioConfig cfg = ScenarioConfig::paper_scale(16);
  cfg.preplaced_fraction = 1.0;
  Instance inst = ScenarioGenerator(cfg).generate(29);
  for (VmRequest& vm : inst.requests.vms) {
    vm.migration_cost += 50.0;  // make moving very expensive
  }
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
