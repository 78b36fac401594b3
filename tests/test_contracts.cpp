// Precondition contracts: IAAS_EXPECT violations must abort loudly (the
// research-artefact rationale in common/expect.h) — these death tests
// pin the contract for the library's entry points.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "algo/allocator.h"
#include "algo/round_robin.h"
#include "broker/multicloud_sim.h"
#include "common/rng.h"
#include "common/stats.h"
#include "model/infrastructure.h"
#include "sim/simulator.h"
#include "tests/test_util.h"
#include "topology/fabric.h"

namespace iaas {
namespace {

using ContractsDeathTest = ::testing::Test;

TEST(ContractsDeathTest, FabricRejectsZeroDatacenters) {
  FabricConfig fc;
  fc.datacenters = 0;
  EXPECT_DEATH({ Fabric fabric(fc); }, "datacenter");
}

TEST(ContractsDeathTest, FabricRejectsEmptyTier) {
  FabricConfig fc;
  fc.servers_per_leaf = 0;
  EXPECT_DEATH({ Fabric fabric(fc); }, "non-empty");
}

TEST(ContractsDeathTest, FabricServerIndexOutOfRange) {
  FabricConfig fc;
  const Fabric fabric(fc);
  EXPECT_DEATH((void)fabric.datacenter_of_server(fabric.server_count()),
               "out of range");
}

TEST(ContractsDeathTest, InfrastructureRequiresFabricSizedServerList) {
  FabricConfig fc;  // 1 DC x 2 spines x 4 leaves x 8 servers = 32
  std::vector<Server> servers;  // wrong: empty
  EXPECT_DEATH({ Infrastructure infra(fc, std::move(servers)); },
               "per fabric server");
}

TEST(ContractsDeathTest, InfrastructureRejectsDatacenterMismatch) {
  FabricConfig fc;
  fc.datacenters = 2;
  fc.leaves_per_dc = 1;
  fc.servers_per_leaf = 1;
  std::vector<Server> servers = {
      test::make_server(0, {1.0, 1.0, 1.0}),
      test::make_server(0, {1.0, 1.0, 1.0})};  // should be DC 1
  EXPECT_DEATH({ Infrastructure infra(fc, std::move(servers)); },
               "datacenter must match");
}

TEST(ContractsDeathTest, RngUniformIntRequiresOrderedBounds) {
  Rng rng(1);
  EXPECT_DEATH((void)rng.uniform_int(5, 4), "lo <= hi");
}

TEST(ContractsDeathTest, RngUniformIndexRejectsZero) {
  Rng rng(1);
  EXPECT_DEATH((void)rng.uniform_index(0), "n > 0");
}

TEST(ContractsDeathTest, PercentileRejectsEmptyRange) {
  const std::vector<double> empty;
  EXPECT_DEATH((void)percentile(empty, 0.5), "empty");
}

TEST(ContractsDeathTest, PercentileRejectsBadQuantile) {
  const std::vector<double> v = {1.0};
  EXPECT_DEATH((void)percentile(v, 1.5), "0,1");
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(ContractsDeathTest, PoissonRejectsNonFiniteMean) {
  Rng rng(1);
  EXPECT_DEATH((void)poisson_sample(kInf, rng), "finite");
  EXPECT_DEATH((void)poisson_sample(kNaN, rng), "finite");
}

TEST(ContractsDeathTest, SimulatorRejectsBadChurnRates) {
  for (const double mean : {kInf, kNaN, -1.0}) {
    SimConfig cfg;
    cfg.arrivals_per_window_mean = mean;
    EXPECT_DEATH(
        { CloudSimulator sim(cfg, std::make_unique<RoundRobinAllocator>()); },
        "arrivals_per_window_mean")
        << "mean " << mean;
  }
  for (const double p : {7.5, -0.1, kNaN}) {
    SimConfig cfg;
    cfg.departure_probability = p;
    EXPECT_DEATH(
        { CloudSimulator sim(cfg, std::make_unique<RoundRobinAllocator>()); },
        "departure_probability")
        << "probability " << p;
  }
}

TEST(ContractsDeathTest, MultiCloudSimulatorRejectsBadChurnRates) {
  MultiCloudSimConfig base;
  ProviderConfig provider;
  provider.id = "solo";
  provider.scenario = ScenarioConfig::paper_scale(16);
  base.market.providers = {provider};
  base.request_shape = provider.scenario;
  for (const double mean : {kInf, kNaN, -1.0}) {
    MultiCloudSimConfig cfg = base;
    cfg.arrivals_per_window_mean = mean;
    EXPECT_DEATH({ MultiCloudSimulator sim(cfg); },
                 "arrivals_per_window_mean")
        << "mean " << mean;
  }
  for (const double p : {7.5, -0.1, kNaN}) {
    MultiCloudSimConfig cfg = base;
    cfg.departure_probability = p;
    EXPECT_DEATH({ MultiCloudSimulator sim(cfg); }, "departure_probability")
        << "probability " << p;
  }
}

TEST(ContractsDeathTest, FinalizeRejectsUnknownServer) {
  // The raw audit runs before sanitization drops out-of-range servers, so
  // the checker itself must refuse them (Matrix checks bounds only in
  // debug builds).
  const Instance inst =
      test::make_instance(1, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}});
  Placement raw(1);
  raw.assign(0, 77);
  EXPECT_DEATH(
      (void)Allocator::finalize(inst, "x", raw, 0.0, 0, ObjectiveOptions{}),
      "unknown server");
}

}  // namespace
}  // namespace iaas
