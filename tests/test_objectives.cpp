// The three objective terms of Eq. 15 (usage/opex Eq. 22, downtime
// Eq. 23, migration Eq. 26), scored by a full PlacementState rebuild.
#include "model/objective_types.h"

#include <gtest/gtest.h>

#include "model/load_model.h"
#include "model/placement_state.h"
#include "tests/test_util.h"

namespace iaas {
namespace {

using test::make_instance;
using test::objectives_of;

TEST(Objectives, UsageCostCountsOpexOncePerUsedServer) {
  // Two VMs on one server: opex charged once, usage twice.
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  Placement p(2);
  p.assign(0, 0);
  p.assign(1, 0);
  const ObjectiveVector obj = objectives_of(inst, p);
  // Helper defaults: opex 10, usage 1.
  EXPECT_DOUBLE_EQ(obj.usage_cost, 10.0 + 2.0 * 1.0);
}

TEST(Objectives, SpreadingCostsMoreOpex) {
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  Placement consolidated(2);
  consolidated.assign(0, 0);
  consolidated.assign(1, 0);
  Placement spread(2);
  spread.assign(0, 0);
  spread.assign(1, 1);
  EXPECT_LT(objectives_of(inst, consolidated).usage_cost,
            objectives_of(inst, spread).usage_cost);
}

TEST(Objectives, OpexPerVmModeMatchesLiteralEq22) {
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  ObjectiveOptions options;
  options.opex_per_vm = true;
  Placement p(2);
  p.assign(0, 0);
  p.assign(1, 0);
  const ObjectiveVector obj = objectives_of(inst, p, options);
  EXPECT_DOUBLE_EQ(obj.usage_cost, 2.0 * (10.0 + 1.0));
}

TEST(Objectives, NoDowntimeCostWhenQosMet) {
  const Instance inst =
      make_instance(1, 1, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}});
  Placement p(1);
  p.assign(0, 0);  // load 0.1 << knee 0.8 -> QoS 0.95 > guarantee 0.9
  EXPECT_DOUBLE_EQ(objectives_of(inst, p).downtime_cost, 0.0);
}

TEST(Objectives, DowntimeCostProportionalToShortfall) {
  // Load 0.95 > knee 0.8: QoS = 0.95 * exp((0.8-0.95)/0.2) < guarantee.
  const Instance inst =
      make_instance(1, 1, {10.0, 10.0, 10.0}, {{9.5, 9.5, 9.5}});
  Placement p(1);
  p.assign(0, 0);
  const double qos = qos_at_load(0.95, 0.8, 0.95);
  ASSERT_LT(qos, 0.9);
  const double expected = 10.0 * (1.0 - qos / 0.9);  // C^U_k = 10, C^Q = .9
  EXPECT_NEAR(objectives_of(inst, p).downtime_cost, expected, 1e-12);
}

TEST(Objectives, MigrationCostChargedOnlyForMoves) {
  Instance inst = make_instance(
      1, 3, {10.0, 10.0, 10.0},
      {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  inst.previous.assign(0, 0);  // will stay
  inst.previous.assign(1, 1);  // will move to 2
  // VM 2 was not running: boot, no migration cost.
  Placement p(3);
  p.assign(0, 0);
  p.assign(1, 2);
  p.assign(2, 1);
  // Helper migration cost = 2.0 per VM; only VM 1 moved.
  EXPECT_DOUBLE_EQ(objectives_of(inst, p).migration_cost, 2.0);
}

TEST(Objectives, TopologyWeightScalesMigrationByHops) {
  // 2 DCs x 2 servers; moving within a leaf costs 2/6 of M_k, across DCs
  // the full M_k.
  Instance inst = make_instance(
      2, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}});
  inst.previous.assign(0, 0);
  ObjectiveOptions options;
  options.topology_migration_weight = true;

  Placement same_leaf(1);
  same_leaf.assign(0, 1);  // same DC, same leaf -> 2 hops
  EXPECT_NEAR(objectives_of(inst, same_leaf, options).migration_cost,
              2.0 * (2.0 / 6.0), 1e-12);

  Placement cross_dc(1);
  cross_dc.assign(0, 2);  // other DC -> 6 hops
  EXPECT_NEAR(objectives_of(inst, cross_dc, options).migration_cost, 2.0,
              1e-12);
}

TEST(Objectives, RejectedVmContributesNothing) {
  const Instance inst =
      make_instance(1, 1, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}});
  const ObjectiveVector obj = objectives_of(inst, Placement(1));
  EXPECT_DOUBLE_EQ(obj.usage_cost, 0.0);
  EXPECT_DOUBLE_EQ(obj.downtime_cost, 0.0);
  EXPECT_DOUBLE_EQ(obj.migration_cost, 0.0);
  EXPECT_DOUBLE_EQ(obj.aggregate(), 0.0);
}

TEST(Objectives, AggregateSumsEqualWeights) {
  ObjectiveVector obj;
  obj.usage_cost = 1.5;
  obj.downtime_cost = 2.5;
  obj.migration_cost = 4.0;
  EXPECT_DOUBLE_EQ(obj.aggregate(), 8.0);
  const auto arr = obj.as_array();
  EXPECT_DOUBLE_EQ(arr[0], 1.5);
  EXPECT_DOUBLE_EQ(arr[1], 2.5);
  EXPECT_DOUBLE_EQ(arr[2], 4.0);
}

TEST(FullRebuild, ReportsViolationsToo) {
  const Instance inst = make_instance(
      1, 1, {10.0, 10.0, 10.0}, {{11.0, 1.0, 1.0}});
  PlacementState state(inst);
  Placement p(1);
  p.assign(0, 0);
  state.rebuild(p);
  EXPECT_EQ(state.capacity_violations(), 1u);
  EXPECT_GT(state.objectives().usage_cost, 0.0);
}

TEST(FullRebuild, LoadsAndQosExposed) {
  const Instance inst =
      make_instance(1, 1, {10.0, 10.0, 10.0}, {{5.0, 5.0, 5.0}});
  PlacementState state(inst);
  Placement p(1);
  p.assign(0, 0);
  state.rebuild(p);
  EXPECT_DOUBLE_EQ(state.loads()(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(state.qos()(0, 0), 0.95);
}

}  // namespace
}  // namespace iaas
