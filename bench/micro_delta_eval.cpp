// Delta-evaluation engine vs full rebuild: the tentpole claim is that
// scoring one single-VM relocation via PlacementState::try_move beats a
// full PlacementState::rebuild pass by a wide margin (>= 5x on the
// 64-server / 512-VM reference instance).  Run with
// --benchmark_filter=512 to see exactly that pair.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "ea/operators.h"
#include "model/load_model.h"
#include "model/placement_state.h"
#include "tabu/repair.h"
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

// A steady strategic window's live set: 128 servers in 2 datacenters,
// `vms` VMs (85% carried over from the previous window), 16 tenants, a
// quarter of them misreporting under the default strategy mix.
Instance live_set(std::uint32_t vms) {
  ScenarioConfig cfg = ScenarioConfig::paper_scale(128, 2);
  cfg.vms = vms;
  cfg.preplaced_fraction = 0.85;
  cfg.consumers = 16;
  cfg.strategic.strategic_fraction = 0.25;
  cfg.strategic.profiles = default_strategy_profiles();
  return ScenarioGenerator(cfg).generate(7);
}

// Full rebuild on a strategic live set of 245 VMs, consolidated first
// fit in VM order, so most servers sit empty and the rest run full, some
// past the QoS knee.  The engine rebuilds no such placement (it rebuilds
// raw offspring, BM_RebuildOffspring below); this one times the passes
// on a packed fleet.
void BM_RebuildLiveSet(benchmark::State& state) {
  const Instance inst = live_set(245);
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

// What the engine rebuilds once per individual: raw offspring, before
// repair.  Each child is the SBX + PM (Table III) of two parents, as
// variation_task varies a pair; each parent is the previous placement
// with 40% of its carried genes (and every new VM's) drawn at random,
// tabu-repaired as the EA's parents are.
constexpr std::size_t kChildren = 64;

std::vector<Placement> offspring(const Instance& inst) {
  const TabuRepair repair(inst);
  const auto max_gene = static_cast<std::int32_t>(inst.m()) - 1;
  const PmTable pm(max_gene, PmParams{});
  Rng rng(4);
  std::vector<Placement> children;
  std::vector<std::int32_t> parents[2];
  std::vector<std::int32_t> child;
  std::vector<std::int32_t> sibling;
  while (children.size() < kChildren) {
    for (std::vector<std::int32_t>& genes : parents) {
      genes.resize(inst.n());
      for (std::size_t k = 0; k < inst.n(); ++k) {
        genes[k] =
            inst.previous.is_assigned(k) && !rng.bernoulli(0.4)
                ? inst.previous.server_of(k)
                : static_cast<std::int32_t>(rng.uniform_index(inst.m()));
      }
      repair.repair(genes, rng);
    }
    sbx_crossover(parents[0], parents[1], child, sibling, max_gene,
                  SbxParams{}, rng);
    polynomial_mutation(child, pm, rng);
    children.emplace_back(child);
  }
  return children;
}

// Full rebuild of a raw offspring.  The loop cycles through kChildren
// distinct children, because the engine never rebuilds one placement
// twice: which VMs moved and which servers are empty or hot change from
// one rebuild to the next, and a loop over one child trains the branch
// predictor on them (a `moved ? cost : 0.0` migration select once cost
// ~1.5k TSC cycles of mispredictions per rebuild in the engine and showed
// in no single-placement bench).  On a strategic live set of 193 VMs the
// children average 29.5 empty servers of 128, 6.5 of 384 cells past their
// knee and 94 VMs off their previous host (the counters below), close to
// what the `strategic` workload's rebuilds average (seed 1): 183 VMs,
// 37.6 empty servers, 5.45 hot cells and 87 moved VMs.
void BM_RebuildOffspring(benchmark::State& state) {
  const Instance inst = live_set(193);
  const std::vector<Placement> children = offspring(inst);

  PlacementState delta_state(inst);
  Matrix<double> loads;
  std::size_t empty = 0;
  std::size_t hot = 0;
  std::size_t moved = 0;
  for (const Placement& p : children) {
    delta_state.rebuild(p);
    compute_loads(inst, p, loads);
    for (std::size_t j = 0; j < inst.m(); ++j) {
      empty += delta_state.vm_count_on(j) == 0 ? 1 : 0;
      for (std::size_t l = 0; l < inst.h(); ++l) {
        hot += loads(j, l) > clamp_knee(inst.infra.server(j).max_load[l])
                   ? 1
                   : 0;
      }
    }
    for (std::size_t k = 0; k < inst.n(); ++k) {
      moved += inst.previous.is_assigned(k) &&
                       inst.previous.server_of(k) != p.server_of(k)
                   ? 1
                   : 0;
    }
  }
  std::size_t next = 0;
  for (auto _ : state) {
    delta_state.rebuild(children[next]);
    benchmark::DoNotOptimize(delta_state.aggregate());
    next = next + 1 == kChildren ? 0 : next + 1;
  }
  const auto per_child = [](std::size_t total) {
    return static_cast<double>(total) / static_cast<double>(kChildren);
  };
  state.counters["empty_servers"] = per_child(empty);
  state.counters["hot_cells"] = per_child(hot);
  state.counters["moved_vms"] = per_child(moved);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RebuildOffspring);

// The engine's offspring path, rebuild then tabu walk: a full-tracking
// state rebuilt from each raw child in turn, then repaired in place by
// TabuRepair::repair_state.  It cycles through the same kChildren
// distinct children as BM_RebuildOffspring, so no one walk trains the
// branch predictor; subtract that bench's time for the walk alone.  Its
// counters print, per child, the violations the walk starts from and the
// moves it applies.
void BM_RepairOffspring(benchmark::State& state) {
  const Instance inst = live_set(193);
  const std::vector<Placement> children = offspring(inst);
  const TabuRepair repair(inst);

  PlacementState delta_state(inst);
  Rng rng(5);
  std::size_t violations = 0;
  std::size_t moves = 0;
  for (const Placement& p : children) {
    delta_state.rebuild(p);
    violations += delta_state.total_violations();
    repair.repair_state(delta_state, rng);
    moves += delta_state.applied_moves();
  }
  std::size_t next = 0;
  for (auto _ : state) {
    delta_state.rebuild(children[next]);
    benchmark::DoNotOptimize(repair.repair_state(delta_state, rng));
    next = next + 1 == kChildren ? 0 : next + 1;
  }
  const auto per_child = [](std::size_t total) {
    return static_cast<double>(total) / static_cast<double>(kChildren);
  };
  state.counters["violations"] = per_child(violations);
  state.counters["moves"] = per_child(moves);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RepairOffspring);

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
