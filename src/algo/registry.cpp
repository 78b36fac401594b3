#include "algo/registry.h"

#include "algo/cp_allocator.h"
#include "algo/filtering.h"
#include "algo/heuristics.h"
#include "algo/round_robin.h"
#include "common/expect.h"

namespace iaas {

const std::vector<AlgorithmId>& all_algorithms() {
  static const std::vector<AlgorithmId> ids = {
      AlgorithmId::kRoundRobin,  AlgorithmId::kConstraintProgramming,
      AlgorithmId::kNsga2,       AlgorithmId::kNsga3,
      AlgorithmId::kNsga3Cp,     AlgorithmId::kNsga3Tabu,
  };
  return ids;
}

const std::vector<AlgorithmId>& extended_algorithms() {
  static const std::vector<AlgorithmId> ids = {
      AlgorithmId::kFiltering,
      AlgorithmId::kFirstFitDecreasing,
      AlgorithmId::kBestFit,
  };
  return ids;
}

std::string algorithm_name(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::kRoundRobin:
      return "RoundRobin";
    case AlgorithmId::kConstraintProgramming:
      return "ConstraintProgramming";
    case AlgorithmId::kNsga2:
      return "NSGA-II";
    case AlgorithmId::kNsga3:
      return "NSGA-III";
    case AlgorithmId::kNsga3Cp:
      return "NSGA-III+CP";
    case AlgorithmId::kNsga3Tabu:
      return "NSGA-III+Tabu";
    case AlgorithmId::kFiltering:
      return "Filtering";
    case AlgorithmId::kFirstFitDecreasing:
      return "FirstFitDecreasing";
    case AlgorithmId::kBestFit:
      return "BestFit";
  }
  return "unknown";
}

std::unique_ptr<Allocator> make_allocator(AlgorithmId id,
                                          const SuiteOptions& options) {
  switch (id) {
    case AlgorithmId::kRoundRobin:
      return std::make_unique<RoundRobinAllocator>();
    case AlgorithmId::kConstraintProgramming:
      return std::make_unique<CpAllocator>(options.cp);
    case AlgorithmId::kNsga2:
      return std::make_unique<Nsga2Allocator>(options.ea);
    case AlgorithmId::kNsga3:
      return std::make_unique<Nsga3Allocator>(options.ea);
    case AlgorithmId::kNsga3Cp:
      return std::make_unique<Nsga3CpAllocator>(options.ea);
    case AlgorithmId::kNsga3Tabu:
      return std::make_unique<Nsga3TabuAllocator>(options.ea);
    case AlgorithmId::kFiltering:
      return std::make_unique<FilteringAllocator>();
    case AlgorithmId::kFirstFitDecreasing:
      return std::make_unique<FirstFitDecreasingAllocator>();
    case AlgorithmId::kBestFit:
      return std::make_unique<BestFitAllocator>();
  }
  IAAS_EXPECT(false, "unknown algorithm id");
  return nullptr;
}

}  // namespace iaas
