// Whole-instance validation (untrusted scenario files).
#include "model/validate.h"

#include <gtest/gtest.h>

#include <cmath>

#include "tests/test_util.h"
#include "workload/generator.h"

namespace iaas {
namespace {

using test::make_instance;

TEST(Validate, CleanInstanceHasNoFindings) {
  const Instance inst = make_instance(
      2, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {2.0, 2.0, 2.0}},
      {{RelationKind::kDifferentDatacenters, {0, 1}}});
  EXPECT_TRUE(validate_instance(inst).empty());
}

TEST(Validate, GeneratedScenariosAreClean) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    ScenarioConfig cfg = ScenarioConfig::paper_scale(32);
    cfg.preplaced_fraction = 0.3;
    const Instance inst = ScenarioGenerator(cfg).generate(seed);
    const auto findings = validate_instance(inst);
    EXPECT_TRUE(findings.empty())
        << "seed " << seed << ": " << findings.front();
  }
}

TEST(Validate, MaxLoadAtOneRejectedBeforeEq24Singularity) {
  // First defense layer: a knee at 1.0 (the Eq. 24 division by 1 - L^M
  // blows up there) never even reaches the objective model — the record
  // fails range validation and Infrastructure refuses to build.
  const Server bad = test::make_server(0, {10.0, 10.0, 10.0}, 10.0, 1.0,
                                       1.0, /*max_load=*/1.0);
  EXPECT_FALSE(bad.valid(3));

  FabricConfig fc;
  fc.datacenters = 1;
  fc.leaves_per_dc = 1;
  fc.servers_per_leaf = 1;
  fc.spines_per_dc = 2;
  fc.cores = 2;
  EXPECT_DEATH({ Infrastructure infra(fc, {bad}); }, "fails validation");
}

TEST(Validate, NanMaxLoadFlagged) {
  // NaN sails through Server::valid()'s range compares (both orderings
  // are false), so the singularity screen must catch it explicitly.
  FabricConfig fc;
  fc.datacenters = 1;
  fc.leaves_per_dc = 1;
  fc.servers_per_leaf = 1;
  fc.spines_per_dc = 2;
  fc.cores = 2;
  Server server = test::make_server(0, {10.0, 10.0, 10.0});
  server.max_load[1] = std::nan("");
  RequestSet requests;
  requests.vms.push_back(test::make_vm({1.0, 1.0, 1.0}));
  const Instance inst(Infrastructure(fc, {server}), std::move(requests));
  const auto findings = validate_instance(inst);
  bool flagged = false;
  for (const std::string& f : findings) {
    if (f.find("singularity") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(Validate, NonFiniteVmFlagged) {
  // A NaN demand compares false against every capacity, so it would hide
  // its host's overload; an instance edited after construction must
  // still be flagged.
  Instance inst = make_instance(1, 1, {10.0, 10.0, 10.0},
                                {{100.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  inst.requests.vms[1].demand[0] = std::nan("");
  const auto findings = validate_instance(inst);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings.front().find("request set"), std::string::npos);
}

TEST(Validate, OversizedVmFlagged) {
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{99.0, 1.0, 1.0}});
  const auto findings = validate_instance(inst);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].find("vm 0"), std::string::npos);
  EXPECT_NE(findings[0].find("exceeds every server"), std::string::npos);
}

TEST(Validate, UnsatisfiableSameServerGroupFlagged) {
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{6.0, 1.0, 1.0}, {6.0, 1.0, 1.0}},
      {{RelationKind::kSameServer, {0, 1}}});
  const auto findings = validate_instance(inst);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings[0].find("same-server group"), std::string::npos);
}

TEST(Validate, OversizedDifferentDatacentersGroupFlagged) {
  const Instance inst = make_instance(
      2, 2, {10.0, 10.0, 10.0},
      {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
      {{RelationKind::kDifferentDatacenters, {0, 1, 2}}});
  const auto findings = validate_instance(inst);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings[0].find("exceeds 2 datacenters"), std::string::npos);
}

TEST(Validate, ConflictingGroupsFlagged) {
  const Instance inst = make_instance(
      1, 4, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
      {{RelationKind::kSameServer, {0, 1}},
       {RelationKind::kDifferentServers, {0, 1}}});
  const auto findings = validate_instance(inst);
  ASSERT_FALSE(findings.empty());
  bool found = false;
  for (const std::string& f : findings) {
    found = found || f.find("conflicting") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST(Validate, BadPreviousPlacementFlagged) {
  Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}});
  inst.previous.assign(0, 99);  // unknown server
  const auto findings = validate_instance(inst);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings[0].find("unknown server"), std::string::npos);
}

TEST(Validate, InfeasiblePreviousPlacementFlagged) {
  Instance inst = make_instance(
      1, 1, {10.0, 10.0, 10.0}, {{6.0, 6.0, 6.0}, {6.0, 6.0, 6.0}});
  inst.previous.assign(0, 0);
  inst.previous.assign(1, 0);  // 12 > 10
  const auto findings = validate_instance(inst);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings[0].find("violates constraints"), std::string::npos);
}

}  // namespace
}  // namespace iaas
