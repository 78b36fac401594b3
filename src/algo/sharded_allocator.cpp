#include "algo/sharded_allocator.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/expect.h"
#include "common/rng.h"
#include "model/assignment_units.h"
#include "model/placement_state.h"

namespace iaas {

namespace {

// Every shard runs the paper's hybrid.
constexpr AlgorithmId kBackend = AlgorithmId::kNsga3Tabu;

// Cross-shard rebalance budgets (stage 3): re-admissions of VMs every
// shard rejected, and migrations pulling rebalance orphans home, each of
// which must improve the aggregate objective by more than
// kMigrationMinGain (absolute).
constexpr std::size_t kMaxRebalancePlacements = 4096;
constexpr std::size_t kMaxMigrations = 256;
constexpr double kMigrationMinGain = 1e-9;

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

ShardedAllocator::ShardedAllocator(ShardedAllocatorOptions options)
    : options_(std::move(options)) {}

ShardedAllocator::~ShardedAllocator() = default;

std::string ShardedAllocator::name() const {
  return "Sharded[" + algorithm_name(kBackend) + "]";
}

void ShardedAllocator::set_time_budget(double seconds) {
  time_budget_seconds_ = seconds;
  for (const std::unique_ptr<Allocator>& backend : backends_) {
    if (backend != nullptr) {
      backend->set_time_budget(seconds);
    }
  }
}

bool ShardedAllocator::seed_next_run(
    std::vector<std::vector<std::int32_t>> front) {
  pending_front_ = std::move(front);
  export_front_ = true;
  return true;
}

void ShardedAllocator::prepare(const Instance& instance) {
  const Fabric& fabric = instance.infra.fabric();
  const std::uint32_t wanted =
      options_.shard_count != 0 ? options_.shard_count
                                : fabric.datacenter_count();
  auto plan = std::make_unique<ShardPlan>(fabric, wanted);
  // Backends persist (carrying their warm-start fronts) while the shard
  // layout is unchanged; a different layout invalidates every slice
  // indexing, so they restart cold.
  const bool same_layout =
      plan_ != nullptr && plan_->slices() == plan->slices();
  plan_ = std::move(plan);
  const std::size_t shards = plan_->shard_count();

  const std::size_t total =
      options_.threads != 0 ? options_.threads : hardware_threads();
  inner_threads_ = std::max<std::size_t>(1, total / shards);
  const std::size_t concurrent = std::min(shards, total);
  if (concurrent > 1) {
    // parallel_for engages size() participants, the caller and size() - 1
    // of the pool's workers, so `concurrent` shards run at once on a pool
    // of `concurrent` workers.
    if (outer_pool_ == nullptr || outer_pool_->size() != concurrent) {
      outer_pool_ = std::make_unique<ThreadPool>(concurrent);
    }
  } else {
    outer_pool_.reset();
  }

  if (!same_layout || backends_.size() != shards) {
    backends_.clear();
    backends_.resize(shards);
  }
  for (std::unique_ptr<Allocator>& backend : backends_) {
    if (backend == nullptr) {
      SuiteOptions suite = options_.suite;
      suite.ea.nsga.threads = inner_threads_;
      backend = make_allocator(kBackend, suite);
      if (time_budget_seconds_ > 0.0) {
        backend->set_time_budget(time_budget_seconds_);
      }
    }
  }
}

AllocationResult ShardedAllocator::allocate(const Instance& instance,
                                            std::uint64_t seed) {
  const auto start = std::chrono::steady_clock::now();
  prepare(instance);
  const ShardPlan& plan = *plan_;
  const std::size_t shards = plan.shard_count();
  const std::size_t n = instance.n();
  const std::size_t m = instance.m();

  // --- 1. unit routing -------------------------------------------------
  // Units carrying a different-datacenters constraint can only be solved
  // where real DC boundaries exist: multi-DC shards, or (when the plan
  // has none) the global rebalance pass.
  std::vector<char> has_diff_dc(n, 0);
  const bool multi_dc_fabric = instance.infra.datacenter_count() > 1;
  if (multi_dc_fabric) {
    for (const PlacementConstraint& c : instance.requests.constraints) {
      if (c.kind == RelationKind::kDifferentDatacenters) {
        for (const std::uint32_t k : c.vms) {
          has_diff_dc[k] = 1;
        }
      }
    }
  }
  bool any_multi_dc_shard = false;
  for (const ShardSlice& slice : plan.slices()) {
    any_multi_dc_shard |= slice.datacenter_count() > 1;
  }

  std::vector<std::int32_t> shard_of_vm(n, -1);
  std::vector<double> shard_load(shards, 0.0);
  std::vector<std::vector<std::uint32_t>> members(shards);
  for (const std::vector<std::uint32_t>& unit :
       assignment_units(instance.requests)) {
    bool needs_multi_dc = false;
    double weight = 0.0;
    for (const std::uint32_t k : unit) {
      needs_multi_dc |= has_diff_dc[k] != 0;
      weight += 1.0;
      for (const double d : instance.requests.vms[k].demand) {
        weight += d;
      }
    }
    if (needs_multi_dc && !any_multi_dc_shard) {
      continue;  // rebalance-only unit
    }
    // Least relative load among the eligible shards, ties to the lowest
    // index — deterministic, and proportional to slice size so unequal
    // shards fill evenly.
    std::size_t best = shards;
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < shards; ++s) {
      if (needs_multi_dc && plan.slice(s).datacenter_count() < 2) {
        continue;
      }
      const double score = (shard_load[s] + weight) /
                           static_cast<double>(plan.slice(s).server_count());
      if (score < best_score) {
        best_score = score;
        best = s;
      }
    }
    IAAS_EXPECT(best < shards, "unit routing found no eligible shard");
    shard_load[best] += weight;
    for (const std::uint32_t k : unit) {
      shard_of_vm[k] = static_cast<std::int32_t>(best);
    }
    members[best].insert(members[best].end(), unit.begin(), unit.end());
  }
  for (std::vector<std::uint32_t>& slice_vms : members) {
    std::sort(slice_vms.begin(), slice_vms.end());
  }

  // --- 2. slice + concurrent shard runs --------------------------------
  // Per-shard seeds are drawn in shard order for every shard (empty ones
  // included), so a membership change in one shard can never shift
  // another shard's stream.
  Rng rng(seed);
  std::vector<std::uint64_t> shard_seed(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shard_seed[s] = rng.next_u64();
  }

  std::vector<std::optional<Instance>> sliced(shards);
  std::vector<std::int32_t> local_of(n, -1);
  for (std::size_t s = 0; s < shards; ++s) {
    if (members[s].empty()) {
      continue;
    }
    const ShardSlice& slice = plan.slice(s);
    RequestSet requests;
    requests.vms.reserve(members[s].size());
    for (const std::uint32_t g : members[s]) {
      local_of[g] = static_cast<std::int32_t>(requests.vms.size());
      requests.vms.push_back(instance.requests.vms[g]);
    }
    // Units are constraint-closed, so a constraint's members are either
    // all in this shard or all elsewhere — checking one member suffices.
    for (const PlacementConstraint& c : instance.requests.constraints) {
      if (shard_of_vm[c.vms.front()] != static_cast<std::int32_t>(s)) {
        continue;
      }
      std::vector<std::uint32_t> local_members;
      local_members.reserve(c.vms.size());
      for (const std::uint32_t g : c.vms) {
        local_members.push_back(static_cast<std::uint32_t>(local_of[g]));
      }
      requests.constraints.push_back({c.kind, std::move(local_members)});
    }
    // Server records of the slice's contiguous global range, with the
    // datacenter field remapped into the slice fabric's local numbering.
    std::vector<Server> servers(
        instance.infra.servers().begin() + slice.server_begin,
        instance.infra.servers().begin() + slice.server_end);
    for (Server& server : servers) {
      server.datacenter =
          slice.whole_datacenters ? server.datacenter - slice.dc_begin : 0;
    }
    Instance& local = sliced[s].emplace(
        Infrastructure(plan.slice_fabric(s), std::move(servers)),
        std::move(requests));
    // Previous placement: in-shard servers translate; a VM previously
    // hosted outside the slice counts as fresh (its true migration cost
    // is restored by the global audit in stage 3).
    for (std::size_t k = 0; k < members[s].size(); ++k) {
      const std::int32_t prev = instance.previous.server_of(members[s][k]);
      if (prev >= static_cast<std::int32_t>(slice.server_begin) &&
          prev < static_cast<std::int32_t>(slice.server_end)) {
        local.previous.assign(
            k, prev - static_cast<std::int32_t>(slice.server_begin));
      }
    }
    for (const std::uint32_t g : members[s]) {
      local_of[g] = -1;  // reset the scratch map for the next shard
    }
  }

  // Warm start: slice the pending global front per shard.  Once armed,
  // every backend is (re)seeded each call — possibly with an empty front
  // — which also keeps its front export armed.
  if (export_front_) {
    for (std::size_t s = 0; s < shards; ++s) {
      const ShardSlice& slice = plan.slice(s);
      std::vector<std::vector<std::int32_t>> local_front;
      if (!members[s].empty()) {
        local_front.reserve(pending_front_.size());
        for (const std::vector<std::int32_t>& genes : pending_front_) {
          if (genes.size() != n) {
            continue;  // stale front from a different request set
          }
          std::vector<std::int32_t> local(members[s].size(),
                                          Placement::kRejected);
          for (std::size_t k = 0; k < members[s].size(); ++k) {
            const std::int32_t g = genes[members[s][k]];
            if (g >= static_cast<std::int32_t>(slice.server_begin) &&
                g < static_cast<std::int32_t>(slice.server_end)) {
              local[k] = g - static_cast<std::int32_t>(slice.server_begin);
            }
          }
          local_front.push_back(std::move(local));
        }
      }
      backends_[s]->seed_next_run(std::move(local_front));
    }
    pending_front_.clear();
  }

  // Concurrent runs: each writes only its own result slot, and its
  // counters land in its own trace rows.
  std::vector<AllocationResult> shard_result(shards);
  const auto run_shard = [&](std::size_t s) {
    if (!sliced[s].has_value()) {
      return;
    }
    shard_result[s] = backends_[s]->allocate(*sliced[s], shard_seed[s]);
  };
  if (outer_pool_ != nullptr) {
    outer_pool_->parallel_for(0, shards, run_shard);
  } else {
    for (std::size_t s = 0; s < shards; ++s) {
      run_shard(s);
    }
  }

  // --- 3. merge, global audit, cross-shard rebalance -------------------
  Placement merged_raw(n);
  std::size_t evaluations = 0;
  bool deadline_hit = false;
  for (std::size_t s = 0; s < shards; ++s) {
    const ShardSlice& slice = plan.slice(s);
    const AllocationResult& r = shard_result[s];
    for (std::size_t k = 0; k < members[s].size(); ++k) {
      const std::int32_t local = r.raw_placement.server_of(k);
      if (local >= 0) {
        merged_raw.assign(
            members[s][k],
            local + static_cast<std::int32_t>(slice.server_begin));
      }
    }
    evaluations += r.evaluations;
    deadline_hit |= r.deadline_hit;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // One SoA flattening of the whole fleet serves the audit and the
  // rebalance state below.
  const auto tables = std::make_shared<const StateTables>(instance);
  AllocationResult merged =
      Allocator::finalize(instance, name(), std::move(merged_raw), wall,
                          evaluations, tables);
  merged.deadline_hit = deadline_hit;
  merged.trace.label = name();
  merged.trace.seed = seed;
  for (std::size_t s = 0; s < shards; ++s) {
    merged.trace.rows.insert(merged.trace.rows.end(),
                             shard_result[s].trace.rows.begin(),
                             shard_result[s].trace.rows.end());
  }

  merged.shard.shard_count = shards;
  merged.shard.pre_rejections = merged.rejected;
  std::size_t max_vms = 0;
  std::size_t min_vms = std::numeric_limits<std::size_t>::max();
  for (const std::vector<std::uint32_t>& slice_vms : members) {
    max_vms = std::max(max_vms, slice_vms.size());
    min_vms = std::min(min_vms, slice_vms.size());
  }
  merged.shard.max_shard_vms = max_vms;
  merged.shard.min_shard_vms = shards == 0 ? 0 : min_vms;

  if (merged.rejected > 0) {
    // Incremental delta engine over the sanitized global placement: the
    // state starts feasible, and only moves that keep violations_delta
    // <= 0 are ever committed, so it stays feasible.
    PlacementState state(instance, {}, StateTracking::kFull, tables);
    state.rebuild(merged.placement);
    std::vector<std::uint32_t> placed;
    for (std::size_t k = 0; k < n; ++k) {
      if (state.placement().is_assigned(k)) {
        continue;
      }
      if (placed.size() >= kMaxRebalancePlacements) {
        break;
      }
      std::int32_t best_server = Placement::kRejected;
      double best_delta = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < m; ++j) {
        const ObjectiveDelta d =
            state.try_move(k, static_cast<std::int32_t>(j));
        if (d.violations_delta == 0 && d.aggregate_delta < best_delta) {
          best_delta = d.aggregate_delta;
          best_server = static_cast<std::int32_t>(j);
        }
      }
      if (best_server != Placement::kRejected) {
        state.apply_move(k, best_server);
        placed.push_back(static_cast<std::uint32_t>(k));
      }
    }
    // Pull rebalance orphans back into their routed shard when it
    // strictly improves the aggregate (boundary losers migrating home).
    std::size_t migrations = 0;
    for (const std::uint32_t k : placed) {
      if (migrations >= kMaxMigrations) {
        break;
      }
      const std::int32_t home = shard_of_vm[k];
      if (home < 0) {
        continue;  // rebalance-only unit: anywhere is home
      }
      const ShardSlice& slice =
          plan.slice(static_cast<std::uint32_t>(home));
      const std::int32_t current = state.placement().server_of(k);
      if (current >= static_cast<std::int32_t>(slice.server_begin) &&
          current < static_cast<std::int32_t>(slice.server_end)) {
        continue;
      }
      std::int32_t best_server = Placement::kRejected;
      double best_delta = -kMigrationMinGain;
      for (std::uint32_t j = slice.server_begin; j < slice.server_end;
           ++j) {
        const ObjectiveDelta d =
            state.try_move(k, static_cast<std::int32_t>(j));
        if (d.violations_delta <= 0 && d.aggregate_delta < best_delta) {
          best_delta = d.aggregate_delta;
          best_server = static_cast<std::int32_t>(j);
        }
      }
      if (best_server != Placement::kRejected) {
        state.apply_move(k, best_server);
        ++migrations;
      }
    }
    merged.shard.rebalance_placements = placed.size();
    merged.shard.migrations = migrations;
    merged.placement = state.placement();
    merged.objectives = state.objectives();
    merged.rejected = merged.placement.rejected_count();
  }

  if (export_front_) {
    // Global front: the final placement first (the one seed guaranteed
    // feasible), then the per-shard fronts stitched index-by-index
    // (shards with shorter fronts repeat their last member).
    std::size_t front_size = 0;
    for (const AllocationResult& r : shard_result) {
      front_size = std::max(front_size, r.front_genes.size());
    }
    merged.front_genes.reserve(front_size + 1);
    merged.front_genes.push_back(merged.placement.genes());
    for (std::size_t i = 0; i < front_size; ++i) {
      std::vector<std::int32_t> genes(n, Placement::kRejected);
      for (std::size_t s = 0; s < shards; ++s) {
        const auto& front = shard_result[s].front_genes;
        if (front.empty()) {
          continue;
        }
        const std::vector<std::int32_t>& local =
            front[std::min(i, front.size() - 1)];
        const ShardSlice& slice = plan.slice(s);
        for (std::size_t k = 0; k < members[s].size(); ++k) {
          if (local[k] >= 0) {
            genes[members[s][k]] =
                local[k] + static_cast<std::int32_t>(slice.server_begin);
          }
        }
      }
      merged.front_genes.push_back(std::move(genes));
    }
  }
  merged.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return merged;
}

}  // namespace iaas
