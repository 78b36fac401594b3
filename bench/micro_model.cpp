// Micro-benchmarks of the model hot paths: placement evaluation (the EA
// inner loop), load computation, constraint checking, sanitization.
#include <benchmark/benchmark.h>

#include "algo/allocator.h"
#include "common/rng.h"
#include "model/constraint_checker.h"
#include "model/load_model.h"
#include "model/placement_state.h"
#include "workload/generator.h"

namespace {

using namespace iaas;

Instance make_instance_for(std::int64_t servers) {
  ScenarioConfig cfg =
      ScenarioConfig::paper_scale(static_cast<std::uint32_t>(servers));
  return ScenarioGenerator(cfg).generate(7);
}

Placement random_placement(const Instance& inst, std::uint64_t seed) {
  Rng rng(seed);
  Placement p(inst.n());
  for (std::size_t k = 0; k < inst.n(); ++k) {
    p.assign(k, static_cast<std::int32_t>(rng.uniform_index(inst.m())));
  }
  return p;
}

void BM_EvaluatePlacement(benchmark::State& state) {
  const Instance inst = make_instance_for(state.range(0));
  PlacementState full(inst);
  const Placement p = random_placement(inst, 1);
  for (auto _ : state) {
    full.rebuild(p);
    benchmark::DoNotOptimize(full.objectives());
    benchmark::DoNotOptimize(full.total_violations());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inst.n()));
}
BENCHMARK(BM_EvaluatePlacement)->Arg(16)->Arg(64)->Arg(256)->Arg(800);

void BM_ComputeLoads(benchmark::State& state) {
  const Instance inst = make_instance_for(state.range(0));
  const Placement p = random_placement(inst, 2);
  Matrix<double> loads;
  for (auto _ : state) {
    compute_loads(inst, p, loads);
    benchmark::DoNotOptimize(loads);
  }
}
BENCHMARK(BM_ComputeLoads)->Arg(64)->Arg(800);

void BM_ConstraintCheck(benchmark::State& state) {
  const Instance inst = make_instance_for(state.range(0));
  const ConstraintChecker checker(inst);
  const Placement p = random_placement(inst, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.check(p));
  }
}
BENCHMARK(BM_ConstraintCheck)->Arg(64)->Arg(800);

void BM_SanitizePlacement(benchmark::State& state) {
  const Instance inst = make_instance_for(state.range(0));
  const Placement p = random_placement(inst, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sanitize_placement(inst, p));
  }
}
BENCHMARK(BM_SanitizePlacement)->Arg(64)->Arg(256);

void BM_GenerateScenario(benchmark::State& state) {
  ScenarioConfig cfg = ScenarioConfig::paper_scale(
      static_cast<std::uint32_t>(state.range(0)));
  const ScenarioGenerator gen(cfg);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate(seed++));
  }
}
BENCHMARK(BM_GenerateScenario)->Arg(64)->Arg(800);

}  // namespace

BENCHMARK_MAIN();
