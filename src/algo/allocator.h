// Unified allocator interface and result record for the paper's
// algorithm comparison (§IV): every algorithm is measured on
//   a) execution time, b) rejection rate, c) violated constraints,
//   d) provider cost — the four axes of Figs. 7-11.
//
// Result semantics: `raw_placement` is the algorithm's direct output and
// `raw_violations` its constraint audit (Fig. 10 reports the raw
// violations of the unmodified EAs).  Since a provider cannot deploy a
// violating plan, the raw output is then *sanitized* — every VM whose
// placement breaks a constraint is rejected — and the deployable
// `placement` drives cost (Fig. 11) and the rejection rate (Fig. 9).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "model/instance.h"
#include "model/constraint_checker.h"
#include "model/objective_types.h"
#include "model/placement.h"

namespace iaas {

// Per-window statistics of one sharded allocation (algo/sharded_allocator):
// how the load split across shards, how lossy the split was before the
// cross-shard rebalance pass, and what the rebalance recovered.
struct ShardRunStats {
  std::size_t shard_count = 0;
  std::size_t pre_rejections = 0;        // rejected by every shard's EA run
  std::size_t rebalance_placements = 0;  // recovered by the global pass
  std::size_t migrations = 0;            // cross-shard improvement moves
  std::size_t max_shard_vms = 0;         // routing imbalance: largest and
  std::size_t min_shard_vms = 0;         // smallest shard slice (VM count)
};

template <fields::Of<ShardRunStats> Self, typename V>
void visit_fields(Self& s, V& v) {
  using enum fields::Tag;
  v.leaf("shard_count", s.shard_count, kDeterministic);
  v.leaf("pre_rejections", s.pre_rejections, kDeterministic);
  v.leaf("rebalance_placements", s.rebalance_placements, kDeterministic);
  v.leaf("migrations", s.migrations, kDeterministic);
  v.leaf("max_shard_vms", s.max_shard_vms, kDeterministic);
  v.leaf("min_shard_vms", s.min_shard_vms, kDeterministic);
}

struct AllocationResult {
  std::string algorithm;

  Placement raw_placement;         // as produced by the algorithm
  ViolationReport raw_violations;  // audit of the raw output (Fig. 10)

  Placement placement;             // sanitized, always feasible
  ObjectiveVector objectives;      // of the sanitized placement (Fig. 11)
  std::size_t vm_count = 0;
  std::size_t rejected = 0;        // of the sanitized placement (Fig. 9)

  double wall_seconds = 0.0;       // Fig. 7/8
  std::size_t evaluations = 0;     // EA objective evaluations (0 otherwise)

  // True when a time budget (set_time_budget) truncated the search: the
  // placement is the best answer found so far, not the full-budget one.
  bool deadline_hit = false;

  // Per-generation decision trace (empty unless the algorithm is an EA
  // run with NsgaConfig::collect_trace set).
  telemetry::RunTrace trace;

  // Final-front gene vectors, exported only after seed_next_run() armed
  // the allocator (EA family; empty otherwise).  The simulator carries
  // them across windows — compacted alongside the live placement — and
  // feeds them back through seed_next_run to warm-start the next search.
  std::vector<std::vector<std::int32_t>> front_genes;

  // Filled only by the sharded allocator (shard_count > 0 then).
  ShardRunStats shard;

  [[nodiscard]] double rejection_rate() const {
    return vm_count == 0
               ? 0.0
               : static_cast<double>(rejected) /
                     static_cast<double>(vm_count);
  }
};

class Allocator {
 public:
  virtual ~Allocator() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  // Produce an allocation for the instance.  `seed` drives every
  // stochastic component; deterministic algorithms ignore it.
  virtual AllocationResult allocate(const Instance& instance,
                                    std::uint64_t seed) = 0;

  // Soft per-call wall-clock budget (seconds; 0 = unlimited).  Anytime
  // algorithms (the EA family) truncate their search and flag the result
  // with `deadline_hit`; algorithms with no anytime behaviour ignore it.
  // The simulator sets this from SimConfig::allocator_deadline_seconds.
  virtual void set_time_budget(double /*seconds*/) {}

  // Warm-start hand-off between successive allocate() calls: `front`
  // holds gene vectors aligned to the NEXT call's VM indexing (typically
  // the previous call's front_genes, compacted by the simulator).
  // Returns true when the allocator consumed the seeds — which also arms
  // front_genes export on the next result.  The default ignores seeds
  // and returns false (stateless algorithms have nothing to warm).
  virtual bool seed_next_run(
      std::vector<std::vector<std::int32_t>> /*front*/) {
    return false;
  }

  // Audits + sanitizes a raw placement and fills the metric fields.
  // Public so composition helpers (and tests) can reuse the pipeline.
  static AllocationResult finalize(const Instance& instance,
                                   std::string algorithm, Placement raw,
                                   double wall_seconds,
                                   std::size_t evaluations);
};

// Rejects every VM participating in a violated constraint so the result
// is deployable: violated relationship groups are thinned to a legal
// subset, then overloaded servers shed their largest VMs.  Rejection can
// never introduce a new violation, so the output is always feasible.
Placement sanitize_placement(const Instance& instance, const Placement& raw);

}  // namespace iaas
