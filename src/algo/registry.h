// Factory over the six compared algorithms so benches, examples and the
// simulator can iterate "all algorithms of §IV" uniformly.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "algo/allocator.h"
#include "algo/nsga_allocators.h"
#include "lp/cp_solver.h"

namespace iaas {

enum class AlgorithmId {
  kRoundRobin,
  kConstraintProgramming,
  kNsga2,      // unmodified
  kNsga3,      // unmodified
  kNsga3Cp,    // NSGA-III + constraint-solver repair
  kNsga3Tabu,  // NSGA-III + tabu repair (the paper's proposal)
  // Extensions beyond the paper's §IV comparison:
  kFiltering,           // Table II's fourth family (filter scheduler)
  kFirstFitDecreasing,  // classic bin-packing heuristic
  kBestFit,             // tightest-fit consolidation heuristic
};

// The paper's six, in the order §IV lists them.
const std::vector<AlgorithmId>& all_algorithms();

// The additional baselines this library ships (Table II's filtering
// family + bin-packing heuristics).
const std::vector<AlgorithmId>& extended_algorithms();

std::string algorithm_name(AlgorithmId id);

struct SuiteOptions {
  EaAllocatorOptions ea;   // shared by all four EA variants
  CpSolverOptions cp;      // constraint-programming baseline
};

std::unique_ptr<Allocator> make_allocator(AlgorithmId id,
                                          const SuiteOptions& options = {});

}  // namespace iaas
