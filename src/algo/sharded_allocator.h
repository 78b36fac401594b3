// ShardedAllocator: partitions one allocation instance along a
// ShardPlan, runs a persistent warm-started EA backend per shard
// concurrently, and stitches the per-shard answers back into one global
// AllocationResult (DESIGN.md §12).
//
// Pipeline per allocate() call:
//   1. Route every union-find assignment unit (model/assignment_units)
//      to exactly one shard — least-loaded-by-demand among the eligible
//      shards, so relationship groups are never split.  Units carrying a
//      different-datacenters constraint are only eligible for multi-DC
//      shards; when none exists they skip the shard stage entirely and
//      are placed by the rebalance pass, which sees real DC identities.
//   2. Slice the instance per shard (local fabric, remapped servers,
//      remapped constraints and previous placement) and run each shard's
//      backend concurrently on a dedicated outer pool, handing each run
//      an inner thread budget of max(1, threads / shard_count) so the
//      nested parallelism never oversubscribes (slot budgeting).
//   3. Merge the raw shard placements, audit + sanitize them globally
//      (Allocator::finalize), then run the cross-shard rebalance on an
//      incremental PlacementState: place every still-rejected VM on the
//      globally best server that adds no violation, and pull rebalance
//      orphans back into their routed shard when it strictly improves
//      the aggregate.  Only moves with violations_delta <= 0 commit, so
//      the final placement stays feasible.
//
// Determinism: per-shard seeds are drawn from the call seed in shard
// order, every backend run is bit-deterministic at any inner thread
// count (the PR-7 contract), and merging + rebalance are serial — so the
// global result is bit-identical for a fixed shard count at ANY thread
// count.  Each shard's counters land in its backend's per-generation
// trace rows, which the merged trace concatenates in shard order, so the
// counter columns are deterministic too.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "algo/registry.h"
#include "common/thread_pool.h"
#include "topology/shard_plan.h"

namespace iaas {

struct ShardedAllocatorOptions {
  // Number of shards; 0 = one shard per datacenter.  Clamped to the
  // fabric's leaf count by ShardPlan.
  std::uint32_t shard_count = 0;
  // Per-shard backend, built through algo/registry (persistent per
  // shard, so EA backends keep their warm-start fronts across windows).
  AlgorithmId backend = AlgorithmId::kNsga3Tabu;
  SuiteOptions suite;
  // Total thread budget split across the concurrent shard runs
  // (0 = hardware_concurrency).  Each run gets max(1, threads / shards)
  // inner threads; 1 shard degenerates to the unsharded parallel run.
  std::size_t threads = 0;
};

class ShardedAllocator : public Allocator {
 public:
  explicit ShardedAllocator(ShardedAllocatorOptions options = {});
  ~ShardedAllocator() override;

  [[nodiscard]] std::string name() const override;

  AllocationResult allocate(const Instance& instance,
                            std::uint64_t seed) override;

  // Forwarded to every shard backend (split is per run, not per shard:
  // concurrent runs share the wall clock, so each gets the full budget).
  void set_time_budget(double seconds) override;

  // Accepts a GLOBAL front (genes hold global server ids, aligned to the
  // next call's VM indexing); allocate() slices it per shard before
  // handing each backend its local share, and arms global front export.
  bool seed_next_run(std::vector<std::vector<std::int32_t>> front) override;

  [[nodiscard]] const ShardedAllocatorOptions& options() const {
    return options_;
  }
  // The plan of the last allocate() call (null before the first).
  [[nodiscard]] const ShardPlan* plan() const { return plan_.get(); }

 private:
  // (Re)builds plan_/backends_/outer_pool_ for this instance's fabric;
  // backends persist while the shard layout is unchanged.
  void prepare(const Instance& instance);

  ShardedAllocatorOptions options_;
  std::unique_ptr<ShardPlan> plan_;
  std::vector<std::unique_ptr<Allocator>> backends_;  // one per shard
  std::unique_ptr<ThreadPool> outer_pool_;  // shard-level concurrency
  std::size_t inner_threads_ = 1;           // per-run budget under the plan

  double time_budget_seconds_ = 0.0;
  bool export_front_ = false;
  std::vector<std::vector<std::int32_t>> pending_front_;
};

}  // namespace iaas
