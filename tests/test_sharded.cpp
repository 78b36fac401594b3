// ShardPlan partitioning, the sharded allocator (concurrent per-shard EA
// runs + cross-shard rebalance), and the sharded steady-state driver:
// determinism across thread counts, rebalance recovery invariants, and
// the trace JSON round trip of the new shard/admission columns.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "algo/sharded_allocator.h"
#include "io/trace_json.h"
#include "sim/simulator.h"
#include "tests/test_util.h"
#include "tests/trace_text.h"
#include "topology/shard_plan.h"
#include "workload/generator.h"

namespace iaas {
namespace {

Fabric make_fabric(std::uint32_t datacenters, std::uint32_t leaves_per_dc,
                   std::uint32_t servers_per_leaf) {
  FabricConfig cfg;
  cfg.datacenters = datacenters;
  cfg.leaves_per_dc = leaves_per_dc;
  cfg.servers_per_leaf = servers_per_leaf;
  return Fabric(cfg);
}

// --- ShardPlan -----------------------------------------------------------

TEST(ShardPlan, TilesEveryServerExactlyOnce) {
  for (const std::uint32_t shards : {1u, 2u, 3u, 5u, 7u, 64u}) {
    const Fabric fabric = make_fabric(3, 4, 2);
    const ShardPlan plan(fabric, shards);
    ASSERT_GE(plan.shard_count(), 1u);
    ASSERT_LE(plan.shard_count(), fabric.leaf_count());

    std::uint32_t next_leaf = 0;
    std::uint32_t next_server = 0;
    for (std::uint32_t s = 0; s < plan.shard_count(); ++s) {
      const ShardSlice& slice = plan.slice(s);
      EXPECT_EQ(slice.leaf_begin, next_leaf);
      EXPECT_GT(slice.leaf_end, slice.leaf_begin);  // no empty shard
      EXPECT_EQ(slice.server_begin,
                slice.leaf_begin * fabric.config().servers_per_leaf);
      EXPECT_EQ(slice.server_end,
                slice.leaf_end * fabric.config().servers_per_leaf);
      EXPECT_EQ(slice.server_begin, next_server);
      next_leaf = slice.leaf_end;
      next_server = slice.server_end;
    }
    EXPECT_EQ(next_leaf, fabric.leaf_count());
    EXPECT_EQ(next_server, fabric.server_count());
  }
}

TEST(ShardPlan, ClampsShardCountToLeafCount) {
  const Fabric fabric = make_fabric(2, 3, 4);  // 6 leaves
  EXPECT_EQ(ShardPlan(fabric, 0).shard_count(), 1u);
  EXPECT_EQ(ShardPlan(fabric, 100).shard_count(), 6u);
  const ShardPlan max_plan(fabric, 100);
  for (std::uint32_t s = 0; s < max_plan.shard_count(); ++s) {
    EXPECT_EQ(max_plan.slice(s).leaf_end - max_plan.slice(s).leaf_begin, 1u);
  }
}

TEST(ShardPlan, WholeDatacenterArmKeepsDcSemantics) {
  const Fabric fabric = make_fabric(5, 2, 4);
  const ShardPlan plan(fabric, 3);  // 3 shards over 5 DCs
  ASSERT_EQ(plan.shard_count(), 3u);
  std::uint32_t next_dc = 0;
  for (std::uint32_t s = 0; s < plan.shard_count(); ++s) {
    const ShardSlice& slice = plan.slice(s);
    EXPECT_TRUE(slice.whole_datacenters);
    EXPECT_EQ(slice.dc_begin, next_dc);
    next_dc = slice.dc_end;
    // Block sizes differ by at most one DC (floor boundaries).
    const std::uint32_t dcs = slice.datacenter_count();
    EXPECT_GE(dcs, 5u / 3u);
    EXPECT_LE(dcs, 5u / 3u + 1u);
    // The slice fabric regenerates exactly this server range.
    const Fabric sliced(plan.slice_fabric(s));
    EXPECT_EQ(sliced.server_count(), slice.server_count());
    EXPECT_EQ(sliced.datacenter_count(), dcs);
  }
  EXPECT_EQ(next_dc, 5u);
  // Floor boundaries 0,1,3,5: shard 0 holds one DC, shards 1 and 2 two.
  EXPECT_EQ(plan.slice(0).datacenter_count(), 1u);
  EXPECT_EQ(plan.slice(1).datacenter_count(), 2u);
  EXPECT_EQ(plan.slice(2).datacenter_count(), 2u);
}

TEST(ShardPlan, OversubscribedArmSplitsWithinDatacenters) {
  const Fabric fabric = make_fabric(2, 4, 2);
  const ShardPlan plan(fabric, 6);  // 3 shards per DC
  ASSERT_EQ(plan.shard_count(), 6u);
  for (std::uint32_t s = 0; s < plan.shard_count(); ++s) {
    const ShardSlice& slice = plan.slice(s);
    EXPECT_FALSE(slice.whole_datacenters);
    EXPECT_EQ(slice.datacenter_count(), 1u);  // never straddles a DC
    const FabricConfig cfg = plan.slice_fabric(s);
    EXPECT_EQ(cfg.datacenters, 1u);
    EXPECT_EQ(cfg.leaves_per_dc, slice.leaf_end - slice.leaf_begin);
  }
}

TEST(ShardPlan, SingleShardCoversEverything) {
  const Fabric fabric = make_fabric(3, 2, 4);
  const ShardPlan plan(fabric, 1);
  ASSERT_EQ(plan.shard_count(), 1u);
  EXPECT_EQ(plan.slice(0).server_count(), fabric.server_count());
  EXPECT_TRUE(plan.slice(0).whole_datacenters);
  EXPECT_EQ(plan.slice(0).datacenter_count(), 3u);
}

// --- ShardedAllocator ----------------------------------------------------

ShardedAllocatorOptions lean_options(std::uint32_t shards,
                                     std::size_t threads) {
  ShardedAllocatorOptions options;
  options.shard_count = shards;
  options.threads = threads;
  options.suite.ea.nsga.population_size = 16;
  options.suite.ea.nsga.max_evaluations = 320;
  options.suite.ea.nsga.reference_divisions = 4;
  return options;
}

TEST(ShardedAllocator, FeasiblePlacementAndConsistentStats) {
  // Heavy load (4 VMs per server) forces per-shard rejections, so the
  // rebalance pass has real work.
  const Instance inst = test::make_random_instance(77, 32, 128);
  ShardedAllocator allocator(lean_options(4, 1));
  const AllocationResult result = allocator.allocate(inst, 5);

  EXPECT_EQ(result.shard.shard_count, 4u);
  EXPECT_GE(result.shard.max_shard_vms, result.shard.min_shard_vms);
  EXPECT_GT(result.shard.max_shard_vms, 0u);
  // The rebalance ledger balances exactly: every recovered VM came out
  // of the pre-rebalance rejection pool.
  EXPECT_EQ(result.rejected,
            result.shard.pre_rejections - result.shard.rebalance_placements);
  EXPECT_LE(result.shard.migrations, result.shard.rebalance_placements);

  // Sanitized + rebalanced: the deployed placement stays feasible.
  PlacementState check(inst);
  check.rebuild(result.placement);
  EXPECT_EQ(check.total_violations(), 0u);
  EXPECT_EQ(check.rejected_count(), result.rejected);
  EXPECT_DOUBLE_EQ(check.aggregate(), result.objectives.aggregate());
}

TEST(ShardedAllocator, RebalanceRecoversShardRejections) {
  // 2 shards over 2 DCs: every shard is single-DC, so different-DC
  // groups cannot be routed to any shard and enter the merge as
  // pre-rejections — deterministic work for the global rebalance pass.
  std::vector<std::vector<double>> demands(16, {1.0, 1.0});
  std::vector<PlacementConstraint> constraints;
  constraints.push_back({RelationKind::kDifferentDatacenters, {0, 1}});
  constraints.push_back({RelationKind::kDifferentDatacenters, {4, 5}});
  constraints.push_back({RelationKind::kDifferentDatacenters, {8, 9}});
  const Instance inst = test::make_instance(2, 8, {10.0, 10.0}, demands,
                                            std::move(constraints));
  ShardedAllocator allocator(lean_options(2, 1));
  const AllocationResult result = allocator.allocate(inst, 9);
  ASSERT_GT(result.shard.pre_rejections, 0u);
  EXPECT_GT(result.shard.rebalance_placements, 0u);
  EXPECT_LT(result.rejected, result.shard.pre_rejections);
}

TEST(ShardedAllocator, BitIdenticalAcrossThreadCounts) {
  // The tentpole determinism contract: for a FIXED shard count the
  // result is bit-identical at any thread count (concurrent shard runs
  // + nested offspring parallelism included).
  const Instance inst = test::make_random_instance(42, 24, 48);
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    std::vector<AllocationResult> results;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      ShardedAllocator allocator(lean_options(shards, threads));
      results.push_back(allocator.allocate(inst, 13));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].placement.genes(), results[0].placement.genes())
          << shards << " shards";
      EXPECT_EQ(results[i].rejected, results[0].rejected);
      EXPECT_DOUBLE_EQ(results[i].objectives.aggregate(),
                       results[0].objectives.aggregate());
      EXPECT_EQ(results[i].shard.pre_rejections,
                results[0].shard.pre_rejections);
      EXPECT_EQ(results[i].shard.rebalance_placements,
                results[0].shard.rebalance_placements);
      EXPECT_EQ(results[i].shard.migrations, results[0].shard.migrations);
    }
  }
  // And the digest actually sees the run: another seed diverges.
  ShardedAllocator a(lean_options(2, 1));
  ShardedAllocator b(lean_options(2, 1));
  EXPECT_NE(a.allocate(inst, 13).placement.genes(),
            b.allocate(inst, 14).placement.genes());
}

TEST(ShardedAllocator, WarmStartFrontExportsGlobalGenes) {
  const Instance inst = test::make_random_instance(3, 16, 32);
  ShardedAllocator allocator(lean_options(2, 1));
  ASSERT_TRUE(allocator.seed_next_run({}));  // arm export, empty seed
  const AllocationResult first = allocator.allocate(inst, 21);
  ASSERT_FALSE(first.front_genes.empty());
  for (const std::vector<std::int32_t>& genes : first.front_genes) {
    ASSERT_EQ(genes.size(), inst.n());
    for (const std::int32_t g : genes) {
      EXPECT_GE(g, Placement::kRejected);
      EXPECT_LT(g, static_cast<std::int32_t>(inst.m()));
    }
  }
  // Entry 0 is the deployed placement (the guaranteed-feasible seed).
  EXPECT_EQ(first.front_genes.front(), first.placement.genes());

  // Feeding the front back warm-starts the next call without changing
  // the result's shape contract.
  ASSERT_TRUE(allocator.seed_next_run(first.front_genes));
  const AllocationResult second = allocator.allocate(inst, 22);
  ASSERT_FALSE(second.front_genes.empty());
  EXPECT_EQ(second.front_genes.front().size(), inst.n());
}

TEST(ShardedAllocator, RoutesDifferentDcGroupsToMultiDcShards) {
  // 2 DCs, 2 shards -> every shard is single-DC, so different-DC groups
  // skip the shard stage and are placed by the rebalance pass on the
  // global state (where DC identities are real).  The result must still
  // be feasible with those groups satisfied.
  std::vector<std::vector<double>> demands(12, {1.0, 1.0});
  std::vector<PlacementConstraint> constraints;
  constraints.push_back(
      {RelationKind::kDifferentDatacenters, {0, 1}});
  constraints.push_back(
      {RelationKind::kDifferentDatacenters, {2, 3}});
  Instance inst = test::make_instance(2, 8, {10.0, 10.0}, demands,
                                      std::move(constraints));
  ShardedAllocator allocator(lean_options(2, 1));
  const AllocationResult result = allocator.allocate(inst, 7);
  EXPECT_EQ(result.rejected, 0u);
  PlacementState check(inst);
  check.rebuild(result.placement);
  EXPECT_EQ(check.total_violations(), 0u);
  const Fabric& fabric = inst.infra.fabric();
  for (const std::size_t k : {0u, 2u}) {
    const std::int32_t a = result.placement.server_of(k);
    const std::int32_t b = result.placement.server_of(k + 1);
    ASSERT_GE(a, 0);
    ASSERT_GE(b, 0);
    EXPECT_NE(fabric.datacenter_of_server(static_cast<std::uint32_t>(a)),
              fabric.datacenter_of_server(static_cast<std::uint32_t>(b)));
  }
}

// --- sharded steady-state driver -----------------------------------------

SimConfig sharded_sim_config() {
  SimConfig cfg;
  cfg.windows = 5;
  cfg.departure_probability = 0.2;
  cfg.scenario = ScenarioConfig::paper_scale(32, 4);
  cfg.arrival_schedule = {18, 6};  // bursty: exercises the admission queue
  cfg.max_admissions_per_window = 12;
  cfg.admission_queue_limit = 40;
  cfg.retry.max_attempts = 2;
  cfg.warm_start_front = true;
  return cfg;
}

std::vector<WindowMetrics> sharded_sim_run(std::size_t threads,
                                           std::uint64_t seed) {
  ShardedAllocatorOptions options = lean_options(4, threads);
  options.suite.ea.nsga.collect_trace = true;
  CloudSimulator sim(sharded_sim_config(),
                     std::make_unique<ShardedAllocator>(options));
  return sim.run(seed);
}

TEST(ShardedSimulator, FingerprintBitIdenticalAcrossThreadCounts) {
  // Warm-started sharded windows with admission control: the full
  // tentpole pipeline must replay bit-identically at any worker count.
  const std::uint64_t serial = deterministic_fingerprint(sharded_sim_run(1, 3));
  EXPECT_EQ(deterministic_fingerprint(sharded_sim_run(2, 3)), serial);
  EXPECT_EQ(deterministic_fingerprint(sharded_sim_run(4, 3)), serial);
  EXPECT_NE(deterministic_fingerprint(sharded_sim_run(1, 4)), serial);
}

// The kCounter columns of every allocator-trace row, in window, row and
// field-list order (the fingerprint skips them).
std::vector<std::size_t> counter_columns(
    const std::vector<WindowMetrics>& metrics) {
  struct Collect {
    std::vector<std::size_t> values;
    void leaf(const char*, std::size_t v, fields::Tag tag) {
      if (tag == fields::Tag::kCounter) {
        values.push_back(v);
      }
    }
    void leaf(const char*, double, fields::Tag) {}
  } collect;
  for (const WindowMetrics& w : metrics) {
    for (const telemetry::GenerationRow& row : w.allocator_trace.rows) {
      visit_fields(row, collect);
    }
  }
  return collect.values;
}

TEST(ShardedSimulator, CounterColumnsIdenticalAcrossThreadCounts) {
  // The four shard runs count into their own per-task blocks, run
  // concurrently on the outer pool at 4 threads; every row's tallies
  // must still be the serial run's.
  const std::vector<WindowMetrics> serial_run = sharded_sim_run(1, 3);
  const std::vector<std::size_t> serial = counter_columns(serial_run);
  ASSERT_FALSE(serial.empty());
#if IAAS_TELEMETRY
  // The sinks saw the shard runs' work (zero with telemetry compiled
  // out).
  std::size_t rebuilds = 0;
  for (const WindowMetrics& w : serial_run) {
    for (const telemetry::GenerationRow& row : w.allocator_trace.rows) {
      rebuilds += row.full_rebuilds;
    }
  }
  EXPECT_GT(rebuilds, 0u);
#endif
  EXPECT_EQ(counter_columns(sharded_sim_run(2, 3)), serial);
  EXPECT_EQ(counter_columns(sharded_sim_run(4, 3)), serial);
}

TEST(ShardedSimulator, ShardAndAdmissionColumnsRoundTripThroughJson) {
  const std::vector<WindowMetrics> metrics = sharded_sim_run(2, 3);
  // The horizon must actually exercise the new columns.
  bool has_shard = false;
  bool has_admission = false;
  for (const WindowMetrics& w : metrics) {
    has_shard = has_shard || w.shard.shard_count > 0;
    has_admission =
        has_admission || w.admission_deferred > 0 || w.admitted > 0;
  }
  ASSERT_TRUE(has_shard);
  ASSERT_TRUE(has_admission);

  const std::string text = test::sim_trace_text(metrics);
  const std::vector<WindowMetrics> parsed =
      sim_trace_from_json(Json::parse(text));
  EXPECT_EQ(test::sim_trace_text(parsed), text);
  EXPECT_EQ(deterministic_fingerprint(parsed),
            deterministic_fingerprint(metrics));
  ASSERT_EQ(parsed.size(), metrics.size());
  for (std::size_t w = 0; w < metrics.size(); ++w) {
    EXPECT_EQ(parsed[w].admitted, metrics[w].admitted);
    EXPECT_EQ(parsed[w].admission_deferred, metrics[w].admission_deferred);
    EXPECT_EQ(parsed[w].admission_dropped, metrics[w].admission_dropped);
    EXPECT_EQ(parsed[w].admission_queue_depth,
              metrics[w].admission_queue_depth);
    EXPECT_EQ(parsed[w].shard.shard_count, metrics[w].shard.shard_count);
    EXPECT_EQ(parsed[w].shard.pre_rejections,
              metrics[w].shard.pre_rejections);
    EXPECT_EQ(parsed[w].shard.rebalance_placements,
              metrics[w].shard.rebalance_placements);
    EXPECT_EQ(parsed[w].shard.migrations, metrics[w].shard.migrations);
    EXPECT_EQ(parsed[w].shard.max_shard_vms, metrics[w].shard.max_shard_vms);
    EXPECT_EQ(parsed[w].shard.min_shard_vms, metrics[w].shard.min_shard_vms);
  }
}

}  // namespace
}  // namespace iaas
