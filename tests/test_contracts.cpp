// Precondition contracts: IAAS_EXPECT violations must abort loudly (the
// research-artefact rationale in common/expect.h) — these death tests
// pin the contract for the library's entry points.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "algo/allocator.h"
#include "algo/round_robin.h"
#include "broker/multicloud_sim.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "ea/nsga3.h"
#include "ea/operators.h"
#include "model/infrastructure.h"
#include "model/instance.h"
#include "sim/fault_model.h"
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

TEST(ContractsDeathTest, FabricRejectsNonPositiveLinkSpeed) {
  for (double FabricConfig::*speed :
       {&FabricConfig::core_spine_gbps, &FabricConfig::spine_leaf_gbps,
        &FabricConfig::leaf_server_gbps}) {
    for (const double gbps :
         {-10.0, 0.0, std::numeric_limits<double>::quiet_NaN()}) {
      FabricConfig fc;
      fc.*speed = gbps;
      EXPECT_DEATH({ Fabric fabric(fc); }, "link speeds") << "gbps " << gbps;
    }
  }
}

TEST(ContractsDeathTest, FabricRejectsZeroCores) {
  // With no core switch, servers in different datacenters have no path
  // between them, yet the fabric would report one at 10 Gb/s.
  FabricConfig fc;
  fc.datacenters = 2;
  fc.cores = 0;
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

TEST(ContractsDeathTest, InfrastructureRejectsNonFiniteServer) {
  // Every value must be finite: a NaN capacity compares false against
  // every load and would hide each overload on its server.
  FabricConfig fc;
  fc.datacenters = 1;
  fc.leaves_per_dc = 1;
  fc.servers_per_leaf = 1;
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<void (*)(Server&)> corruptions = {
      [](Server& s) { s.capacity[0] = kNan; },
      [](Server& s) { s.capacity[1] = kInf; },
      [](Server& s) { s.factor[2] = kNan; },
      [](Server& s) { s.max_qos[0] = kNan; },
      [](Server& s) { s.opex = kInf; },
      [](Server& s) { s.usage_cost = kNan; },
      [](Server& s) { s.usage_cost = kInf; },
  };
  for (const auto corrupt : corruptions) {
    Server server = test::make_server(0, {10.0, 10.0, 10.0});
    corrupt(server);
    EXPECT_DEATH({ Infrastructure infra(fc, {server}); }, "fails validation");
  }
}

TEST(ContractsDeathTest, InstanceRejectsNonFiniteRequest) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<void (*)(VmRequest&)> corruptions = {
      [](VmRequest& vm) { vm.demand[0] = kNan; },
      [](VmRequest& vm) { vm.demand[2] = kInf; },
      [](VmRequest& vm) { vm.true_demand = {1.0, kNan, 1.0}; },
      [](VmRequest& vm) { vm.true_demand = {1.0, 1.0, kInf}; },
      [](VmRequest& vm) { vm.downtime_cost = kInf; },
      [](VmRequest& vm) { vm.migration_cost = kInf; },
  };
  for (const auto corrupt : corruptions) {
    const Instance clean =
        test::make_instance(1, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}});
    RequestSet requests = clean.requests;
    corrupt(requests.vms[0]);
    EXPECT_DEATH({ Instance inst(clean.infra, requests); },
                 "request set inconsistent");
  }
}

TEST(ContractsDeathTest, RngUniformIntRequiresOrderedBounds) {
  Rng rng(1);
  EXPECT_DEATH((void)rng.uniform_int(5, 4), "lo <= hi");
}

TEST(ContractsDeathTest, RngUniformIndexRejectsZero) {
  Rng rng(1);
  EXPECT_DEATH((void)rng.uniform_index(0), "n > 0");
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

// 0 means "no deadline".  A negative or NaN one fails `x > 0.0` as 0
// does, so unless the constructor refuses it, it silently means the same.
TEST(ContractsDeathTest, SimulatorRejectsBadDeadlines) {
  for (const double seconds : {-1.0, kNaN}) {
    SimConfig cfg;
    cfg.allocator_deadline_seconds = seconds;
    EXPECT_DEATH(
        { CloudSimulator sim(cfg, std::make_unique<RoundRobinAllocator>()); },
        "allocator_deadline_seconds")
        << "seconds " << seconds;
  }
  for (const double factor : {-1.0, kNaN}) {
    SimConfig cfg;
    cfg.deadline_hard_factor = factor;
    EXPECT_DEATH(
        { CloudSimulator sim(cfg, std::make_unique<RoundRobinAllocator>()); },
        "deadline_hard_factor")
        << "factor " << factor;
  }
}

TEST(ContractsDeathTest, NsgaRejectsBadTimeLimit) {
  const Instance inst = test::make_random_instance(1);
  const AllocationProblem problem(inst);
  for (const double seconds : {-1.0, kNaN}) {
    NsgaConfig cfg;
    cfg.time_limit_seconds = seconds;
    EXPECT_DEATH({ Nsga3 engine(problem, cfg); }, "time_limit_seconds")
        << "seconds " << seconds;
  }
}

TEST(ContractsDeathTest, DeadlineRejectsNaN) {
  // Converting NaN to a clock duration is undefined behaviour.
  EXPECT_DEATH((void)Deadline::after_seconds(kNaN), "NaN");
}

TEST(ContractsDeathTest, FaultModelRejectsBadProbabilities) {
  const Fabric fabric(FabricConfig{});
  for (double FaultConfig::*field :
       {&FaultConfig::server_failure_probability,
        &FaultConfig::leaf_failure_probability,
        &FaultConfig::decommission_probability}) {
    for (const double p : {1.5, -0.1, kNaN}) {
      FaultConfig cfg;
      cfg.*field = p;
      EXPECT_DEATH({ FaultModel model(cfg, fabric, 1); }, "probability")
          << "probability " << p;
    }
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

TEST(ContractsDeathTest, PolynomialMutationRejectsGeneOutsideDomain) {
  // The tabulated mutation indexes its tables by gene, so a gene outside
  // [0, max_gene] must abort rather than read past their end (or be
  // folded silently back into range).
  PmParams params;
  params.rate = 1.0;
  const PmTable table(9, params);
  Rng rng(1);
  std::vector<std::int32_t> above = {3, 10};
  EXPECT_DEATH(polynomial_mutation(above, table, rng), "outside");
  std::vector<std::int32_t> below = {-1, 3};
  EXPECT_DEATH(polynomial_mutation(below, table, rng), "outside");
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
