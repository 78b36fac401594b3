// Fault lifecycle (MTTR repairs, decommissions, correlated rack
// outages), the bounded retry queue, and the fabric's global-leaf
// helpers they are built on.
#include <gtest/gtest.h>

#include <set>

#include "sim/fault_model.h"
#include "sim/retry_queue.h"
#include "tests/test_util.h"
#include "topology/fabric.h"

namespace iaas {
namespace {

Fabric small_fabric() {
  FabricConfig fc;
  fc.datacenters = 2;
  fc.leaves_per_dc = 2;
  fc.servers_per_leaf = 4;
  fc.spines_per_dc = 2;
  fc.cores = 2;
  return Fabric(fc);
}

TEST(FabricLeafHelpers, GlobalLeafIndexingRoundTrips) {
  const Fabric fabric = small_fabric();
  ASSERT_EQ(fabric.leaf_count(), 4u);
  std::set<std::uint32_t> seen;
  for (std::uint32_t leaf = 0; leaf < fabric.leaf_count(); ++leaf) {
    const auto servers = fabric.servers_on_global_leaf(leaf);
    ASSERT_EQ(servers.size(), 4u);
    for (std::uint32_t j : servers) {
      EXPECT_EQ(fabric.datacenter_of_server(j) * 2 + fabric.leaf_of_server(j),
                leaf);
      EXPECT_TRUE(seen.insert(j).second) << "server on two leaves";
    }
  }
  // Every server accounted for exactly once.
  EXPECT_EQ(seen.size(), fabric.server_count());
}

TEST(FaultModel, ServerRepairsAfterMttr) {
  FaultConfig cfg;
  cfg.scripted = {{/*window=*/1, /*leaf_level=*/false, /*index=*/3,
                   /*mttr_windows=*/3, /*decommission=*/false}};
  const Fabric fabric = small_fabric();
  FaultModel model(cfg, fabric, 1);

  EXPECT_TRUE(model.advance(0).empty());
  EXPECT_FALSE(model.is_down(3));

  const auto events = model.advance(1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FaultEventKind::kServerFailure);
  EXPECT_EQ(events[0].mttr_windows, 3u);
  EXPECT_TRUE(model.is_down(3));

  // Down for windows 1, 2, 3; repaired at the start of window 4.
  EXPECT_TRUE(model.advance(2).empty());
  EXPECT_TRUE(model.advance(3).empty());
  EXPECT_TRUE(model.is_down(3));
  const auto repair = model.advance(4);
  ASSERT_EQ(repair.size(), 1u);
  EXPECT_EQ(repair[0].kind, FaultEventKind::kRepair);
  EXPECT_EQ(repair[0].index, 3u);
  EXPECT_FALSE(model.is_down(3));
  EXPECT_EQ(model.down_count(), 0u);
}

TEST(FaultModel, DecommissionNeverReturns) {
  FaultConfig cfg;
  cfg.scripted = {{0, false, 5, 1, /*decommission=*/true}};
  const Fabric fabric = small_fabric();
  FaultModel model(cfg, fabric, 1);

  const auto events = model.advance(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FaultEventKind::kDecommission);
  EXPECT_EQ(events[0].mttr_windows, 0u);
  for (std::size_t w = 1; w < 50; ++w) {
    EXPECT_TRUE(model.advance(w).empty());
  }
  EXPECT_TRUE(model.is_down(5));
  EXPECT_EQ(model.decommissioned_count(), 1u);
  EXPECT_EQ(model.down_count(), 1u);
}

TEST(FaultModel, LeafOutageTakesDownWholeRackTogether) {
  FaultConfig cfg;
  cfg.scripted = {{2, /*leaf_level=*/true, /*index=*/1, 2, false}};
  const Fabric fabric = small_fabric();
  FaultModel model(cfg, fabric, 1);

  model.advance(0);
  model.advance(1);
  const auto events = model.advance(2);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FaultEventKind::kLeafFailure);
  EXPECT_EQ(events[0].servers.size(), 4u);
  EXPECT_EQ(model.down_count(), 4u);
  for (std::uint32_t j : fabric.servers_on_global_leaf(1)) {
    EXPECT_TRUE(model.is_down(j));
  }
  // The rack comes back as one after the shared MTTR.
  const auto repairs = model.advance(4);
  EXPECT_EQ(repairs.size(), 4u);
  EXPECT_EQ(model.down_count(), 0u);
}

TEST(FaultModel, AlreadyDownServerNotDoubleCounted) {
  FaultConfig cfg;
  cfg.scripted = {{0, false, 2, 5, false},
                  {1, false, 2, 1, false},   // already down: no event
                  {1, true, 0, 1, false}};   // rack 0 contains server 2
  const Fabric fabric = small_fabric();
  FaultModel model(cfg, fabric, 1);

  EXPECT_EQ(model.advance(0).size(), 1u);
  const auto events = model.advance(1);
  // Only the leaf event, and it lists the three servers not yet down.
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FaultEventKind::kLeafFailure);
  EXPECT_EQ(events[0].servers.size(), 3u);
  EXPECT_EQ(model.down_count(), 4u);
}

TEST(FaultModel, RandomHistoryDeterministicPerSeed) {
  FaultConfig cfg;
  cfg.server_failure_probability = 0.10;
  cfg.leaf_failure_probability = 0.05;
  cfg.mttr_min_windows = 1;
  cfg.mttr_max_windows = 4;
  cfg.decommission_probability = 0.10;
  const Fabric fabric = small_fabric();
  FaultModel a(cfg, fabric, 99);
  FaultModel b(cfg, fabric, 99);
  FaultModel c(cfg, fabric, 100);
  bool histories_diverge = false;
  std::size_t total_events = 0;
  for (std::size_t w = 0; w < 64; ++w) {
    const auto ea = a.advance(w);
    const auto eb = b.advance(w);
    EXPECT_EQ(ea, eb) << "window " << w;
    total_events += ea.size();
    histories_diverge = histories_diverge || ea != c.advance(w);
  }
  EXPECT_GT(total_events, 0u);
  EXPECT_TRUE(histories_diverge);
  EXPECT_EQ(a.down_count(), b.down_count());
  EXPECT_EQ(a.decommissioned_count(), b.decommissioned_count());
}

TEST(FaultModel, MttrDrawsStayInRange) {
  FaultConfig cfg;
  cfg.server_failure_probability = 0.25;
  cfg.mttr_min_windows = 2;
  cfg.mttr_max_windows = 5;
  const Fabric fabric = small_fabric();
  FaultModel model(cfg, fabric, 7);
  for (std::size_t w = 0; w < 100; ++w) {
    for (const FaultEvent& e : model.advance(w)) {
      if (e.kind == FaultEventKind::kServerFailure) {
        EXPECT_GE(e.mttr_windows, 2u);
        EXPECT_LE(e.mttr_windows, 5u);
      }
    }
  }
}

TEST(RetryQueue, BackoffDoublesUpToCap) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.backoff_base_windows = 1;
  policy.backoff_cap_windows = 8;
  const RetryQueue queue(policy);
  EXPECT_EQ(queue.backoff_windows(1), 1u);
  EXPECT_EQ(queue.backoff_windows(2), 2u);
  EXPECT_EQ(queue.backoff_windows(3), 4u);
  EXPECT_EQ(queue.backoff_windows(4), 8u);
  EXPECT_EQ(queue.backoff_windows(5), 8u);  // capped
  EXPECT_EQ(queue.backoff_windows(60), 8u);  // no shift overflow
}

TEST(RetryQueue, OfferRespectsAttemptBudget) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  RetryQueue queue(policy);
  EXPECT_TRUE(queue.offer(test::make_vm({1, 1, 1}), 1, 0));
  EXPECT_TRUE(queue.offer(test::make_vm({1, 1, 1}), 2, 0));
  // Third failed attempt exhausts the budget: permanent rejection.
  EXPECT_FALSE(queue.offer(test::make_vm({1, 1, 1}), 3, 0));
  EXPECT_EQ(queue.size(), 2u);
}

TEST(RetryQueue, DisabledPolicyRejectsImmediately) {
  RetryQueue queue(RetryPolicy{});  // max_attempts = 0
  EXPECT_EQ(queue.policy().max_attempts, 0u);
  EXPECT_FALSE(queue.offer(test::make_vm({1, 1, 1}), 1, 0));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(RetryQueue, PopDueIsFifoAndHonoursBackoff) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.backoff_base_windows = 2;
  RetryQueue queue(policy);
  // First-attempt failures at window 0 -> ready at window 2.
  EXPECT_TRUE(queue.offer(test::make_vm({1, 0, 0}), 1, 0));
  EXPECT_TRUE(queue.offer(test::make_vm({2, 0, 0}), 1, 0));
  // Second-attempt failure at window 0 -> ready at window 4.
  EXPECT_TRUE(queue.offer(test::make_vm({3, 0, 0}), 2, 0));

  EXPECT_TRUE(queue.pop_due(1).empty());
  auto due = queue.pop_due(2);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_DOUBLE_EQ(due[0].vm.demand[0], 1.0);  // FIFO order
  EXPECT_DOUBLE_EQ(due[1].vm.demand[0], 2.0);
  EXPECT_EQ(queue.size(), 1u);
  due = queue.pop_due(4);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_DOUBLE_EQ(due[0].vm.demand[0], 3.0);
  EXPECT_EQ(due[0].attempts, 2u);
  EXPECT_EQ(queue.size(), 0u);
}

}  // namespace
}  // namespace iaas
