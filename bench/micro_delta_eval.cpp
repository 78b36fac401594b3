// Delta-evaluation engine vs full rebuild: the tentpole claim is that
// scoring one single-VM relocation via PlacementState::try_move beats a
// full PlacementState::rebuild pass by a wide margin (>= 5x on the
// 64-server / 512-VM reference instance).  Run with
// --benchmark_filter=512 to see exactly that pair.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "model/placement_state.h"
#include "workload/generator.h"

namespace {

using namespace iaas;

// The acceptance instance shape: m servers, 8x VMs (64 -> 512), with
// relationship groups and a previous window so every objective term and
// violation counter is live.
Instance make_instance_for(std::int64_t servers) {
  ScenarioConfig cfg =
      ScenarioConfig::paper_scale(static_cast<std::uint32_t>(servers));
  cfg.vms = static_cast<std::uint32_t>(servers) * 8;
  cfg.preplaced_fraction = 0.5;
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

// Pre-drawn move stream so the timed loop measures evaluation, not RNG.
struct MovePlan {
  std::vector<std::size_t> vms;
  std::vector<std::int32_t> targets;
};

MovePlan make_moves(const Instance& inst, std::size_t count,
                    std::uint64_t seed) {
  Rng rng(seed);
  MovePlan plan;
  plan.vms.reserve(count);
  plan.targets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    plan.vms.push_back(rng.uniform_index(inst.n()));
    plan.targets.push_back(
        static_cast<std::int32_t>(rng.uniform_index(inst.m())));
  }
  return plan;
}

// Baseline: score each candidate move the way the pre-refactor tabu loop
// did — mutate the placement, full rebuild, undo.
void BM_FullObjectivesPerMove(benchmark::State& state) {
  const Instance inst = make_instance_for(state.range(0));
  PlacementState full(inst);
  Placement p = random_placement(inst, 1);
  const MovePlan plan = make_moves(inst, 1024, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t k = plan.vms[i];
    const std::int32_t old = p.server_of(k);
    p.assign(k, plan.targets[i]);
    full.rebuild(p);
    benchmark::DoNotOptimize(full.objectives());
    p.assign(k, old);
    i = (i + 1) % plan.vms.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FullObjectivesPerMove)->Arg(16)->Arg(64)->Arg(256);

// The delta engine scoring the same move stream.
void BM_TryMove(benchmark::State& state) {
  const Instance inst = make_instance_for(state.range(0));
  PlacementState delta_state(inst);
  delta_state.rebuild(random_placement(inst, 1));
  const MovePlan plan = make_moves(inst, 1024, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        delta_state.try_move(plan.vms[i], plan.targets[i]));
    i = (i + 1) % plan.vms.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TryMove)->Arg(16)->Arg(64)->Arg(256);

// Committing + undoing a move (the tabu walk's accepted-move cost).
void BM_ApplyRevert(benchmark::State& state) {
  const Instance inst = make_instance_for(state.range(0));
  PlacementState delta_state(inst);
  delta_state.rebuild(random_placement(inst, 1));
  const MovePlan plan = make_moves(inst, 1024, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    delta_state.apply_move(plan.vms[i], plan.targets[i]);
    delta_state.revert();
    i = (i + 1) % plan.vms.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ApplyRevert)->Arg(16)->Arg(64)->Arg(256);

// Full rebuild cost for reference (what the engine's unfused evaluation
// pays once per individual).
void BM_Rebuild(benchmark::State& state) {
  const Instance inst = make_instance_for(state.range(0));
  PlacementState delta_state(inst);
  const Placement p = random_placement(inst, 1);
  for (auto _ : state) {
    delta_state.rebuild(p);
    benchmark::DoNotOptimize(delta_state.aggregate());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Rebuild)->Arg(64)->Arg(256);

// Full rebuild on the shape of a steady strategic window's live set: 128
// servers in 2 datacenters, 245 VMs (85% carried over from the previous
// window), 16 tenants, a quarter of them misreporting under the default
// strategy mix.  The placement is consolidated the way the EA's accepted
// offspring are: first fit in VM order, so most servers sit empty and
// the rest run full, some past the QoS knee.
void BM_RebuildLiveSet(benchmark::State& state) {
  ScenarioConfig cfg = ScenarioConfig::paper_scale(128, 2);
  cfg.vms = 245;
  cfg.preplaced_fraction = 0.85;
  cfg.consumers = 16;
  cfg.strategic.strategic_fraction = 0.25;
  cfg.strategic.profiles = default_strategy_profiles();
  const Instance inst = ScenarioGenerator(cfg).generate(7);
  PlacementState packer(inst, {}, StateTracking::kViolationsOnly);
  for (std::size_t k = 0; k < inst.n(); ++k) {
    for (std::size_t j = 0; j < inst.m(); ++j) {
      if (packer.is_valid_allocation(k, j)) {
        packer.apply_move(k, static_cast<std::int32_t>(j));
        break;
      }
    }
  }
  const Placement p = packer.placement();
  PlacementState delta_state(inst);
  for (auto _ : state) {
    delta_state.rebuild(p);
    benchmark::DoNotOptimize(delta_state.aggregate());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RebuildLiveSet);

// Gene-diff rebase: repositioning a live state onto a sibling's genes
// (the offspring pipeline's second-child path).  Ping-pongs between two
// vectors differing in ~2% of genes, so each iteration pays one
// small-diff reposition — compare against BM_Rebuild at the same size.
void BM_RebaseSmallDiff(benchmark::State& state) {
  const Instance inst = make_instance_for(state.range(0));
  PlacementState delta_state(inst);
  const Placement p = random_placement(inst, 1);
  delta_state.rebuild(p);
  Rng rng(3);
  std::vector<std::int32_t> a = p.genes();
  std::vector<std::int32_t> b = a;
  const std::size_t flips = std::max<std::size_t>(1, inst.n() / 50);
  for (std::size_t f = 0; f < flips; ++f) {
    b[rng.uniform_index(inst.n())] =
        static_cast<std::int32_t>(rng.uniform_index(inst.m()));
  }
  bool to_b = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(delta_state.rebase(to_b ? b : a));
    to_b = !to_b;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RebaseSmallDiff)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
