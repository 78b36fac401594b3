// Steady-state NSGA generations allocate nothing: the engines keep their
// sort, crowding, niching and gene buffers across generations, so a run's
// heap allocations, less the final front's copies, do not grow with its
// length.  A counting global operator new measures it; the runs are
// serial (threads = 1), so the count is exact.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "ea/nsga2.h"
#include "ea/nsga3.h"
#include "workload/generator.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace iaas {
namespace {

constexpr std::size_t kPopulation = 24;

// Allocations of one run of `generations` generations, less one per
// final-front member (each copy's gene vector).
std::size_t run_allocations(const AllocationProblem& problem, bool nsga3,
                            ConstraintMode mode, std::size_t generations) {
  NsgaConfig cfg;
  cfg.population_size = kPopulation;
  cfg.max_evaluations = kPopulation * (generations + 1);
  cfg.reference_divisions = 4;
  cfg.constraint_mode = mode;
  cfg.threads = 1;
  std::unique_ptr<NsgaBase> engine;
  if (nsga3) {
    engine = std::make_unique<Nsga3>(problem, cfg);
  } else {
    engine = std::make_unique<Nsga2>(problem, cfg);
  }
  const std::size_t before = g_allocations.load();
  const NsgaBase::Result result = engine->run(2017);
  const std::size_t during = g_allocations.load() - before;
  EXPECT_EQ(result.generations, generations);
  return during - result.front.size();
}

TEST(EaAllocations, GenerationsAllocateNothing) {
  ScenarioConfig scenario = ScenarioConfig::paper_scale(16);
  scenario.preplaced_fraction = 0.5;
  const Instance instance = ScenarioGenerator(scenario).generate(41);
  const AllocationProblem problem(instance);
  const ConstraintMode modes[] = {ConstraintMode::kIgnore,
                                  ConstraintMode::kPenalty,
                                  ConstraintMode::kExclude};
  for (const bool nsga3 : {false, true}) {
    for (const ConstraintMode mode : modes) {
      const std::size_t short_run = run_allocations(problem, nsga3, mode, 5);
      const std::size_t long_run = run_allocations(problem, nsga3, mode, 25);
      EXPECT_EQ(long_run, short_run)
          << (nsga3 ? "NSGA-III" : "NSGA-II") << " mode "
          << static_cast<int>(mode);
    }
  }
}

}  // namespace
}  // namespace iaas
