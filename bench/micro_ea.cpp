// Micro-benchmarks of the EA and repair machinery: variation operators,
// non-dominated sorting, NSGA-III niching inputs, and both repair
// operators (tabu vs constraint-solver — the Fig. 8 scaling difference
// in miniature).
#include <benchmark/benchmark.h>

#include "algo/cp_repair.h"
#include "common/rng.h"
#include "ea/nondominated_sort.h"
#include "ea/operators.h"
#include "ea/reference_points.h"
#include "tabu/repair.h"
#include "workload/generator.h"

namespace {

using namespace iaas;

Instance make_instance_for(std::int64_t servers) {
  ScenarioConfig cfg =
      ScenarioConfig::paper_scale(static_cast<std::uint32_t>(servers));
  return ScenarioGenerator(cfg).generate(11);
}

void BM_SbxCrossover(benchmark::State& state) {
  Rng rng(1);
  const auto genes = static_cast<std::size_t>(state.range(0));
  std::vector<std::int32_t> pa(genes), pb(genes), ca, cb;
  randomize_genes(pa, 799, rng);
  randomize_genes(pb, 799, rng);
  const SbxParams params;
  for (auto _ : state) {
    sbx_crossover(pa, pb, ca, cb, 799, params, rng);
    benchmark::DoNotOptimize(ca);
  }
}
BENCHMARK(BM_SbxCrossover)->Arg(128)->Arg(1600);

void BM_PolynomialMutation(benchmark::State& state) {
  Rng rng(2);
  std::vector<std::int32_t> genes(static_cast<std::size_t>(state.range(0)));
  randomize_genes(genes, 799, rng);
  const PmTable table(799, PmParams{});  // Table III rate 0.20
  for (auto _ : state) {
    polynomial_mutation(genes, table, rng);
    benchmark::DoNotOptimize(genes);
  }
}
BENCHMARK(BM_PolynomialMutation)->Arg(128)->Arg(1600);

void BM_NondominatedSort(benchmark::State& state) {
  Rng rng(3);
  Population pop(static_cast<std::size_t>(state.range(0)));
  for (Individual& i : pop) {
    i.objectives = {rng.next_double(), rng.next_double(), rng.next_double()};
  }
  const auto dom = [](const Individual& a, const Individual& b) {
    return dominates(a, b);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(nondominated_sort(pop, dom));
  }
}
BENCHMARK(BM_NondominatedSort)->Arg(100)->Arg(200)->Arg(400);

void BM_DasDennisPoints(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        das_dennis_points(static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_DasDennisPoints)->Arg(12)->Arg(24);

void BM_TabuRepair(benchmark::State& state) {
  const Instance inst = make_instance_for(state.range(0));
  TabuRepair repair(inst);
  Rng rng(4);
  std::vector<std::int32_t> base(inst.n());
  randomize_genes(base, static_cast<std::int32_t>(inst.m()) - 1, rng);
  for (auto _ : state) {
    std::vector<std::int32_t> genes = base;
    benchmark::DoNotOptimize(repair.repair(genes, rng));
  }
}
BENCHMARK(BM_TabuRepair)->Arg(32)->Arg(128)->Arg(512);

void BM_CpRepair(benchmark::State& state) {
  const Instance inst = make_instance_for(state.range(0));
  CpRepair repair(inst);
  Rng rng(5);
  std::vector<std::int32_t> base(inst.n());
  randomize_genes(base, static_cast<std::int32_t>(inst.m()) - 1, rng);
  for (auto _ : state) {
    std::vector<std::int32_t> genes = base;
    benchmark::DoNotOptimize(repair.repair(genes, rng));
  }
}
BENCHMARK(BM_CpRepair)->Arg(32)->Arg(128)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
