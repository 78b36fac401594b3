// Load (Eq. 25) and QoS (Eq. 24) models, including shape properties of
// the piecewise-exponential decay.
#include "model/load_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "model/placement_state.h"
#include "tests/test_util.h"

namespace iaas {
namespace {

using test::make_instance;

TEST(QosAtLoad, FlatBelowKnee) {
  EXPECT_DOUBLE_EQ(qos_at_load(0.0, 0.8, 0.95), 0.95);
  EXPECT_DOUBLE_EQ(qos_at_load(0.5, 0.8, 0.95), 0.95);
  EXPECT_DOUBLE_EQ(qos_at_load(0.8, 0.8, 0.95), 0.95);
}

TEST(QosAtLoad, ExponentialDecayAboveKnee) {
  const double q = qos_at_load(0.9, 0.8, 0.95);
  EXPECT_DOUBLE_EQ(q, 0.95 * std::exp((0.8 - 0.9) / 0.2));
  EXPECT_LT(q, 0.95);
}

TEST(QosAtLoad, ContinuousAtKnee) {
  const double below = qos_at_load(0.8, 0.8, 0.95);
  const double above = qos_at_load(0.8 + 1e-12, 0.8, 0.95);
  EXPECT_NEAR(below, above, 1e-9);
}

// Property sweep: QoS is non-increasing in load and stays in (0, max].
class QosMonotone : public ::testing::TestWithParam<double> {};

TEST_P(QosMonotone, NonIncreasingInLoad) {
  const double knee = GetParam();
  const double max_qos = 0.97;
  double prev = max_qos + 1.0;
  for (double load = 0.0; load <= 2.0; load += 0.01) {
    const double q = qos_at_load(load, knee, max_qos);
    EXPECT_LE(q, prev + 1e-15);
    EXPECT_GT(q, 0.0);
    EXPECT_LE(q, max_qos);
    prev = q;
  }
}

INSTANTIATE_TEST_SUITE_P(Knees, QosMonotone,
                         ::testing::Values(0.0, 0.3, 0.5, 0.7, 0.9, 0.99));

// Eq. 24 divides by (1 - L^M): a knee at exactly 1.0 used to produce
// inf/NaN in Release (the debug-only assert never fired there) and
// poison the Eq. 23 downtime cost.  The clamp must hold in every build
// mode.
TEST(QosAtLoad, KneeAtOneIsClampedNotSingular) {
  for (double load : {0.0, 0.5, 0.999, 1.0, 1.5}) {
    const double q = qos_at_load(load, 1.0, 0.95);
    EXPECT_TRUE(std::isfinite(q)) << "load " << load;
    // exp() may underflow to exactly 0 past the clamped knee — finite
    // and non-negative is the contract, never inf/NaN.
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 0.95);
  }
  // Below the (clamped) knee the plateau value survives intact.
  EXPECT_DOUBLE_EQ(qos_at_load(0.5, 1.0, 0.95), 0.95);
}

TEST(QosAtLoad, BadKneeValuesSanitized) {
  const double nan = std::nan("");
  // NaN and negative knees degrade to knee 0 (decay from the start)
  // instead of propagating NaN into the objective accumulators.
  EXPECT_TRUE(std::isfinite(qos_at_load(0.5, nan, 0.95)));
  EXPECT_TRUE(std::isfinite(qos_at_load(0.5, -0.3, 0.95)));
  EXPECT_DOUBLE_EQ(qos_at_load(0.5, -0.3, 0.95),
                   qos_at_load(0.5, 0.0, 0.95));
  // Knees above 1 clamp to just-under-1, same as exactly 1.
  EXPECT_DOUBLE_EQ(qos_at_load(1.2, 2.0, 0.95),
                   qos_at_load(1.2, 1.0, 0.95));
}

TEST(ComputeLoads, SumsDemandsOverCapacity) {
  const Instance inst = make_instance(
      1, 2, {10.0, 20.0, 40.0},
      {{2.0, 4.0, 8.0}, {3.0, 2.0, 4.0}, {5.0, 10.0, 20.0}});
  Placement p(3);
  p.assign(0, 0);
  p.assign(1, 0);
  p.assign(2, 1);
  Matrix<double> loads;
  compute_loads(inst, p, loads);
  EXPECT_DOUBLE_EQ(loads(0, 0), 0.5);   // (2+3)/10
  EXPECT_DOUBLE_EQ(loads(0, 1), 0.3);   // (4+2)/20
  EXPECT_DOUBLE_EQ(loads(0, 2), 0.3);   // (8+4)/40
  EXPECT_DOUBLE_EQ(loads(1, 0), 0.5);   // 5/10
  EXPECT_DOUBLE_EQ(loads(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(loads(1, 2), 0.5);
}

TEST(ComputeLoads, RejectedVmsContributeNothing) {
  const Instance inst =
      make_instance(1, 1, {10.0, 10.0, 10.0}, {{5.0, 5.0, 5.0}});
  const Placement p(1);  // rejected
  Matrix<double> loads;
  compute_loads(inst, p, loads);
  EXPECT_DOUBLE_EQ(loads(0, 0), 0.0);
}

TEST(ComputeLoads, ReusesBufferWithoutStaleData) {
  const Instance inst =
      make_instance(1, 2, {10.0, 10.0, 10.0}, {{5.0, 5.0, 5.0}});
  Placement p(1);
  p.assign(0, 0);
  Matrix<double> loads;
  compute_loads(inst, p, loads);
  EXPECT_DOUBLE_EQ(loads(0, 0), 0.5);
  p.assign(0, 1);
  compute_loads(inst, p, loads);  // same buffer, new placement
  EXPECT_DOUBLE_EQ(loads(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(loads(1, 0), 0.5);
}

// Eq. 23 charges a VM C^U * (1 - q / C^Q) when its server's worst QoS q
// is below its guarantee C^Q, so a state's downtime term reads q back.
// Downtime of VM k alone on `server`:
double downtime_alone(const Instance& inst, std::size_t k,
                      std::int32_t server) {
  Placement p(inst.n());
  p.assign(k, server);
  PlacementState state(inst);
  state.rebuild(p);
  return state.objectives().downtime_cost;
}

TEST(PlacementStateQos, UsesPerServerKneeAndCeiling) {
  // Server 0 has the helper's knee 0.8 and ceiling 0.95, server 1 knee
  // 0.5 and ceiling 0.97.  Every VM's downtime cost is 10.
  FabricConfig fc;
  fc.datacenters = 1;
  fc.leaves_per_dc = 1;
  fc.servers_per_leaf = 2;
  fc.spines_per_dc = 2;
  fc.cores = 2;
  std::vector<Server> servers = {
      test::make_server(0, {10.0, 10.0, 10.0}),
      test::make_server(0, {10.0, 10.0, 10.0}, 10.0, 1.0, 1.0, 0.5, 0.97)};
  RequestSet requests;
  requests.vms = {test::make_vm({9.0, 1.0, 1.0}, 0.9),
                  test::make_vm({6.0, 1.0, 1.0}, 0.9),
                  test::make_vm({1.0, 1.0, 1.0}, 0.99)};
  const Instance inst(Infrastructure(fc, std::move(servers)),
                      std::move(requests));

  // CPU load 0.9 is past server 0's knee: degraded below the guarantee.
  EXPECT_DOUBLE_EQ(downtime_alone(inst, 0, 0),
                   10.0 * (1.0 - qos_at_load(0.9, 0.8, 0.95) / 0.9));
  // CPU load 0.6 is below server 0's knee but past server 1's.
  EXPECT_DOUBLE_EQ(downtime_alone(inst, 1, 0), 0.0);
  EXPECT_DOUBLE_EQ(downtime_alone(inst, 1, 1),
                   10.0 * (1.0 - qos_at_load(0.6, 0.5, 0.97) / 0.9));
  // Load 0.1 everywhere: every attribute sits at its server's ceiling,
  // which a 0.99 guarantee misses.
  EXPECT_DOUBLE_EQ(downtime_alone(inst, 2, 0), 10.0 * (1.0 - 0.95 / 0.99));
  EXPECT_DOUBLE_EQ(downtime_alone(inst, 2, 1), 10.0 * (1.0 - 0.97 / 0.99));
}

}  // namespace
}  // namespace iaas
