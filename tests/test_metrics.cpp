// Normalized metrics (the paper's future-work cost-per-request metric),
// revenue model, utilization summaries.
#include "algo/metrics.h"

#include <gtest/gtest.h>

#include "algo/round_robin.h"
#include "tests/test_util.h"

namespace iaas {
namespace {

using test::make_instance;
using test::make_random_instance;

AllocationResult make_result(const Instance& inst, Placement p) {
  AllocationResult r;
  r.algorithm = "test";
  r.vm_count = inst.n();
  r.placement = std::move(p);
  r.rejected = r.placement.rejected_count();
  r.objectives = test::objectives_of(inst, r.placement);
  return r;
}

TEST(Metrics, AcceptanceRateAndCostPerRequest) {
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{1.0, 2.0, 20.0}, {1.0, 2.0, 20.0}});
  Placement p(2);
  p.assign(0, 0);  // one accepted, one rejected
  const AllocationResult r = make_result(inst, p);
  const NormalizedMetrics m = compute_metrics(inst, r);
  EXPECT_DOUBLE_EQ(m.acceptance_rate, 0.5);
  EXPECT_DOUBLE_EQ(m.cost_per_accepted_request, r.objectives.aggregate());
}

TEST(Metrics, RevenuePricesAcceptedDemandOnly) {
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{2.0, 4.0, 50.0}, {2.0, 4.0, 50.0}});
  Placement p(2);
  p.assign(0, 0);
  const AllocationResult r = make_result(inst, p);
  PriceModel prices;
  prices.per_cpu_core = 1.0;
  prices.per_ram_gb = 1.0;
  prices.per_disk_gb = 1.0;
  const NormalizedMetrics m = compute_metrics(inst, r, prices);
  EXPECT_DOUBLE_EQ(m.revenue, 2.0 + 4.0 + 50.0);
  EXPECT_DOUBLE_EQ(m.net_profit, m.revenue - r.objectives.aggregate());
}

TEST(Metrics, CostPerDemandedUnitNormalisesAcrossScale) {
  // Same per-VM shape at two scenario scales: the normalized unit cost
  // should land in the same ballpark, unlike the raw total cost.
  RoundRobinAllocator rr;
  const Instance small = make_random_instance(3, 16, 32);
  const Instance large = make_random_instance(3, 64, 128);
  const AllocationResult rs = rr.allocate(small, 1);
  const AllocationResult rl = rr.allocate(large, 1);
  const double unit_small = compute_metrics(small, rs).cost_per_demanded_unit;
  const double unit_large = compute_metrics(large, rl).cost_per_demanded_unit;
  EXPECT_GT(unit_small, 0.0);
  EXPECT_GT(unit_large, 0.0);
  EXPECT_LT(std::abs(unit_small - unit_large) /
                std::max(unit_small, unit_large),
            0.5);  // within 50% of each other despite 4x scale
}

TEST(Metrics, EmptyPlacementZeroes) {
  const Instance inst =
      make_instance(1, 1, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}});
  const AllocationResult r = make_result(inst, Placement(1));
  const NormalizedMetrics m = compute_metrics(inst, r);
  EXPECT_DOUBLE_EQ(m.acceptance_rate, 0.0);
  EXPECT_DOUBLE_EQ(m.cost_per_accepted_request, 0.0);
  EXPECT_DOUBLE_EQ(m.revenue, 0.0);
}

TEST(Utilization, CountsUsedServersAndLoads) {
  const Instance inst = make_instance(
      1, 3, {10.0, 10.0, 10.0}, {{5.0, 2.0, 2.0}, {2.0, 2.0, 2.0}});
  Placement p(2);
  p.assign(0, 0);
  p.assign(1, 0);
  const UtilizationSummary u = compute_utilization(inst, p);
  EXPECT_EQ(u.used_servers, 1u);
  EXPECT_DOUBLE_EQ(u.mean_worst_load, 0.7);  // (5+2)/10 on cpu
  EXPECT_DOUBLE_EQ(u.peak_worst_load, 0.7);
}

TEST(Utilization, PerDatacenterBreakdown) {
  const Instance inst = make_instance(
      2, 1, {10.0, 10.0, 10.0}, {{4.0, 1.0, 1.0}, {8.0, 1.0, 1.0}});
  Placement p(2);
  p.assign(0, 0);  // DC 0
  p.assign(1, 1);  // DC 1
  const UtilizationSummary u = compute_utilization(inst, p);
  ASSERT_EQ(u.per_datacenter_mean_load.size(), 2u);
  EXPECT_DOUBLE_EQ(u.per_datacenter_mean_load[0], 0.4);
  EXPECT_DOUBLE_EQ(u.per_datacenter_mean_load[1], 0.8);
}

TEST(Utilization, EmptyPlatform) {
  const Instance inst =
      make_instance(1, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}});
  const UtilizationSummary u = compute_utilization(inst, Placement(1));
  EXPECT_EQ(u.used_servers, 0u);
  EXPECT_DOUBLE_EQ(u.mean_worst_load, 0.0);
}

}  // namespace
}  // namespace iaas
