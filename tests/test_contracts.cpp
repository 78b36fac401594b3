// Precondition contracts: IAAS_EXPECT violations must abort loudly (the
// research-artefact rationale in common/expect.h) — these death tests
// pin the contract for the library's entry points.
#include <gtest/gtest.h>

#include "algo/allocator.h"
#include "common/rng.h"
#include "common/stats.h"
#include "ea/archive.h"
#include "model/infrastructure.h"
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

TEST(ContractsDeathTest, ArchiveRejectsZeroCapacity) {
  EXPECT_DEATH({ ParetoArchive archive(0); }, "positive");
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
