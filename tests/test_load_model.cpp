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

TEST(PlacementStateQos, UsesPerServerKneeAndCeiling) {
  Instance inst = make_instance(1, 1, {10.0, 10.0, 10.0},
                                {{9.0, 1.0, 1.0}});
  Placement p(1);
  p.assign(0, 0);
  PlacementState state(inst);
  state.rebuild(p);
  const Matrix<double>& qos = state.qos();
  // Helper servers: knee 0.8, ceiling 0.95. CPU load 0.9 -> degraded.
  EXPECT_DOUBLE_EQ(qos(0, 0), qos_at_load(0.9, 0.8, 0.95));
  EXPECT_LT(qos(0, 0), 0.95);
  // RAM/disk load 0.1 -> at ceiling.
  EXPECT_DOUBLE_EQ(qos(0, 1), 0.95);
  EXPECT_DOUBLE_EQ(qos(0, 2), 0.95);
}

}  // namespace
}  // namespace iaas
