// Micro-benchmarks of the EA and repair machinery: variation operators,
// non-dominated sorting, NSGA-III selection and niching inputs, and both repair
// operators (tabu vs constraint-solver — the Fig. 8 scaling difference
// in miniature).
#include <benchmark/benchmark.h>

#include "algo/cp_repair.h"
#include "common/rng.h"
#include "ea/nondominated_sort.h"
#include "ea/nsga3.h"
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

// One pair as NsgaBase::variation_task varies it (SBX, then PM on each
// child) on parents that agree on 60% of their genes: a strategic
// window's 245 genes over 128 servers, and Fig. 8's 1,600 over 800.
void BM_Variation(benchmark::State& state) {
  const auto genes = static_cast<std::size_t>(state.range(0));
  const auto max_gene = static_cast<std::int32_t>(state.range(1));
  Rng rng(7);
  std::vector<std::int32_t> pa(genes), pb(genes), ca, cb;
  randomize_genes(pa, max_gene, rng);
  randomize_genes(pb, max_gene, rng);
  for (std::size_t g = 0; g < genes; ++g) {
    if (rng.bernoulli(0.6)) {
      pb[g] = pa[g];
    }
  }
  const SbxParams sbx;  // Table III
  const PmTable table(max_gene, PmParams{});
  for (auto _ : state) {
    sbx_crossover(pa, pb, ca, cb, max_gene, sbx, rng);
    polynomial_mutation(ca, table, rng);
    polynomial_mutation(cb, table, rng);
    benchmark::DoNotOptimize(ca.data());
    benchmark::DoNotOptimize(cb.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Variation)->Args({245, 127})->Args({1600, 799});

// A merged population as the steady-state EA sees it after repair:
// objectives spread over a few fronts, one member in ten infeasible.
Population merged_population(std::size_t members, Rng& rng) {
  Population pop(members);
  for (Individual& i : pop) {
    i.objectives = {rng.next_double(), rng.next_double(), rng.next_double()};
    i.violations =
        rng.bernoulli(0.1) ? static_cast<std::uint32_t>(rng.uniform_int(1, 3))
                           : 0u;
  }
  return pop;
}

// The template under Deb's constrained dominance (the reference the keyed
// kernel is tested against), at the workloads' 2 x 24 and Table III's
// 2 x 100 merged populations.
void BM_NondominatedSort(benchmark::State& state) {
  Rng rng(3);
  Population pop =
      merged_population(static_cast<std::size_t>(state.range(0)), rng);
  const auto dom = [](const Individual& a, const Individual& b) {
    return constrained_dominates(a, b);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(nondominated_sort(pop, dom));
  }
}
BENCHMARK(BM_NondominatedSort)->Arg(48)->Arg(200);

// The keyed kernel the engines run, on the same populations, with its
// scratch reused across calls as in a run.
void BM_KeyedNondominatedSort(benchmark::State& state) {
  Rng rng(3);
  Population pop =
      merged_population(static_cast<std::size_t>(state.range(0)), rng);
  SortScratch scratch;
  for (auto _ : state) {
    const Fronts& fronts =
        keyed_nondominated_sort(pop, ConstraintMode::kRepair, scratch);
    benchmark::DoNotOptimize(fronts.order.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KeyedNondominatedSort)->Arg(48)->Arg(200);

// Exposes NSGA-III's environmental selection.
class Nsga3Selection : public Nsga3 {
 public:
  using Nsga3::Nsga3;
  using Nsga3::environmental_selection;
};

// One NSGA-III environmental selection (sort, normalisation, niching) on
// a 48-member merged population in the workloads' configuration: 24
// survivors, 4 reference divisions, repair mode.  Each iteration also
// copies the merged population (gene-less, so without allocating).
void BM_Nsga3Selection(benchmark::State& state) {
  const Instance inst = make_instance_for(32);
  const AllocationProblem problem(inst);
  NsgaConfig config;
  config.population_size = static_cast<std::size_t>(state.range(0)) / 2;
  config.reference_divisions = 4;
  config.constraint_mode = ConstraintMode::kRepair;
  Nsga3Selection engine(problem, config, [](PlacementState&, Rng&) {});
  Rng rng(6);
  const Population merged =
      merged_population(static_cast<std::size_t>(state.range(0)), rng);
  Population work;
  Population next;
  for (auto _ : state) {
    work = merged;
    engine.environmental_selection(work, next, rng);
    benchmark::DoNotOptimize(next.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Nsga3Selection)->Arg(48);

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
