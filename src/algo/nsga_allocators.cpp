#include "algo/nsga_allocators.h"

#include "algo/cp_repair.h"
#include "algo/ideal_point.h"
#include "common/stopwatch.h"
#include "ea/nsga2.h"
#include "ea/nsga3.h"
#include "ea/problem.h"
#include "tabu/repair.h"

namespace iaas {
namespace {

// Shared tail of every EA allocator: run the engine, pick the front
// member nearest the ideal point, then audit + sanitize.  `export_front`
// additionally copies the final front's gene vectors into the result for
// the warm-start hand-off.
template <typename Engine, typename Repairer = TabuRepair>
AllocationResult run_engine(const AllocationProblem& problem,
                            std::uint64_t seed, const std::string& algo_name,
                            Engine& engine, bool export_front,
                            const Repairer* final_repair = nullptr) {
  Stopwatch timer;
  typename Engine::Result ea_result = engine.run(seed);

  const std::size_t pick = select_ideal_point(ea_result.front);
  std::vector<std::int32_t> genes = ea_result.front[pick].genes;
  // The repaired hybrids guarantee a compliant answer: one last repair
  // pass over the deployed solution (cheap no-op when already feasible).
  if (final_repair != nullptr) {
    Rng repair_rng(seed ^ 0x66696e616cULL);
    final_repair->repair(genes, repair_rng);
  }

  AllocationResult result = Allocator::finalize(
      problem.instance(), algo_name, Placement(std::move(genes)),
      timer.elapsed_seconds(), ea_result.evaluations, problem.tables());
  result.deadline_hit = ea_result.hit_time_limit;
  if (!ea_result.trace.empty()) {
    result.trace = std::move(ea_result.trace);
    result.trace.label = algo_name;
  }
  if (export_front) {
    result.front_genes.reserve(ea_result.front.size());
    for (Individual& member : ea_result.front) {
      result.front_genes.push_back(std::move(member.genes));
    }
  }
  return result;
}

NsgaConfig unmodified(NsgaConfig config) {
  // "Unmodified" NSGA-II/III: constraints play no role in the search.
  config.constraint_mode = ConstraintMode::kIgnore;
  return config;
}

NsgaConfig with_repair(NsgaConfig config) {
  config.constraint_mode = ConstraintMode::kRepair;
  return config;
}

}  // namespace

Nsga2Allocator::Nsga2Allocator(EaAllocatorOptions options)
    : EaAllocatorBase(std::move(options)) {}

AllocationResult Nsga2Allocator::allocate(const Instance& instance,
                                          std::uint64_t seed) {
  AllocationProblem problem(instance);
  Nsga2 engine(problem, unmodified(options_.nsga));
  return run_engine(problem, seed, name(), engine, export_front_);
}

Nsga3Allocator::Nsga3Allocator(EaAllocatorOptions options)
    : EaAllocatorBase(std::move(options)) {}

AllocationResult Nsga3Allocator::allocate(const Instance& instance,
                                          std::uint64_t seed) {
  AllocationProblem problem(instance);
  Nsga3 engine(problem, unmodified(options_.nsga));
  return run_engine(problem, seed, name(), engine, export_front_);
}

// Backtrack budgets of the constraint-solver repair: per in-loop
// invocation, and for the single final pass over the deployed solution
// (deep, but only one invocation).
constexpr std::uint64_t kCpRepairBacktracks = 500;
constexpr std::uint64_t kCpFinalRepairBacktracks = 50000;

Nsga3CpAllocator::Nsga3CpAllocator(EaAllocatorOptions options)
    : EaAllocatorBase(std::move(options)) {}

AllocationResult Nsga3CpAllocator::allocate(const Instance& instance,
                                            std::uint64_t seed) {
  AllocationProblem problem(instance);
  // Both repairers and the engine's per-slot states share the problem's
  // one SoA flattening.
  const CpRepair repair(instance, kCpRepairBacktracks, problem.tables());
  Nsga3 engine(problem, with_repair(options_.nsga),
               [&repair](PlacementState& state, Rng& rng) {
                 repair.repair_state(state, rng);
               });
  // The deployed solution gets one deep constraint solve so the
  // CP-hybrid's answer is compliant even when the in-loop budget could
  // not fully repair at scale.
  const CpRepair final_repair(instance, kCpFinalRepairBacktracks,
                              problem.tables());
  return run_engine(problem, seed, name(), engine, export_front_,
                    &final_repair);
}

Nsga3TabuAllocator::Nsga3TabuAllocator(EaAllocatorOptions options)
    : EaAllocatorBase(std::move(options)) {}

AllocationResult Nsga3TabuAllocator::allocate(const Instance& instance,
                                              std::uint64_t seed) {
  AllocationProblem problem(instance);
  // One SoA flattening serves the whole hybrid: the engine's per-slot
  // states and the final pass's state.
  const TabuRepair repair(instance, {}, problem.tables());
  // The repair walk runs on the engine's arena state, rebuilt from each
  // individual's genes (never rebased), whose accumulators are then read
  // out as the evaluation: no post-repair rebuild.
  Nsga3 engine(problem, with_repair(options_.nsga),
               [&repair](PlacementState& state, Rng& rng) {
                 repair.repair_state(state, rng);
               });
  return run_engine(problem, seed, name(), engine, export_front_, &repair);
}

}  // namespace iaas
