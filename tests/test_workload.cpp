// Scenario generator: determinism, structural validity, satisfiability
// guards, paper-scale shapes.
#include "workload/generator.h"

#include <gtest/gtest.h>

#include "model/constraint_checker.h"
#include "workload/strategic.h"

namespace iaas {
namespace {

TEST(ScenarioGenerator, DeterministicPerSeed) {
  const ScenarioGenerator gen(ScenarioConfig::paper_scale(32));
  const Instance a = gen.generate(7);
  const Instance b = gen.generate(7);
  ASSERT_EQ(a.n(), b.n());
  ASSERT_EQ(a.m(), b.m());
  for (std::size_t k = 0; k < a.n(); ++k) {
    EXPECT_EQ(a.requests.vms[k].demand, b.requests.vms[k].demand);
    EXPECT_DOUBLE_EQ(a.requests.vms[k].qos_guarantee,
                     b.requests.vms[k].qos_guarantee);
  }
  for (std::size_t j = 0; j < a.m(); ++j) {
    EXPECT_EQ(a.infra.server(j).capacity, b.infra.server(j).capacity);
  }
  ASSERT_EQ(a.requests.constraints.size(), b.requests.constraints.size());
  for (std::size_t c = 0; c < a.requests.constraints.size(); ++c) {
    EXPECT_EQ(a.requests.constraints[c].kind, b.requests.constraints[c].kind);
    EXPECT_EQ(a.requests.constraints[c].vms, b.requests.constraints[c].vms);
  }
}

TEST(ScenarioGenerator, DifferentSeedsDiffer) {
  const ScenarioGenerator gen(ScenarioConfig::paper_scale(32));
  const Instance a = gen.generate(1);
  const Instance b = gen.generate(2);
  bool any_difference = false;
  for (std::size_t k = 0; k < a.n() && !any_difference; ++k) {
    any_difference = a.requests.vms[k].demand != b.requests.vms[k].demand;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ScenarioGenerator, PaperScaleShape) {
  const ScenarioConfig cfg = ScenarioConfig::paper_scale(800);
  EXPECT_EQ(cfg.total_servers, 800u);
  EXPECT_EQ(cfg.vms, 1600u);  // paper: 800 servers / 1600 VMs
  const ScenarioGenerator gen(cfg);
  const Instance inst = gen.generate(1);
  EXPECT_GE(inst.m(), 800u);  // rounded up to full leaves
  EXPECT_EQ(inst.n(), 1600u);
  EXPECT_EQ(inst.g(), 2u);
}

TEST(ScenarioGenerator, ServerTotalsRoundUpToFullLeaves) {
  ScenarioConfig cfg = ScenarioConfig::paper_scale(20);  // 10/DC, leaf=8
  const ScenarioGenerator gen(cfg);
  const FabricConfig fc = gen.fabric_config();
  EXPECT_EQ(fc.leaves_per_dc, 2u);  // ceil(10/8)
  const Instance inst = gen.generate(3);
  EXPECT_EQ(inst.m(), 32u);  // 2 DC * 2 leaves * 8
}

class GeneratedInstanceValidity
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratedInstanceValidity, StructurallyValid) {
  ScenarioConfig cfg = ScenarioConfig::paper_scale(48);
  cfg.preplaced_fraction = 0.25;
  const ScenarioGenerator gen(cfg);
  const Instance inst = gen.generate(GetParam());

  // Every server and VM record passes validation.
  for (std::size_t j = 0; j < inst.m(); ++j) {
    EXPECT_TRUE(inst.infra.server(j).valid(inst.h()));
  }
  EXPECT_TRUE(inst.requests.valid(inst.h()));

  // Constraint-group guards: diff-DC groups fit the DC count; same-server
  // groups fit the largest server.
  for (const PlacementConstraint& c : inst.requests.constraints) {
    EXPECT_GE(c.vms.size(), 2u);
    if (c.kind == RelationKind::kDifferentDatacenters) {
      EXPECT_LE(c.vms.size(), inst.g());
    }
    if (c.kind == RelationKind::kSameServer) {
      for (std::size_t l = 0; l < inst.h(); ++l) {
        double sum = 0.0;
        for (std::uint32_t k : c.vms) {
          sum += inst.requests.vms[k].demand[l];
        }
        double max_eff = 0.0;
        for (std::size_t j = 0; j < inst.m(); ++j) {
          max_eff =
              std::max(max_eff, inst.infra.server(j).effective_capacity(l));
        }
        EXPECT_LE(sum, max_eff);
      }
    }
  }

  // The preplaced previous placement must itself be feasible.
  const ConstraintChecker checker(inst);
  EXPECT_TRUE(checker.check(inst.previous).feasible());
  EXPECT_GT(inst.previous.assigned_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedInstanceValidity,
                         ::testing::Values(1u, 7u, 42u, 99u, 12345u,
                                           987654321u));

TEST(ScenarioGenerator, ConstrainedFractionRespected) {
  ScenarioConfig cfg = ScenarioConfig::paper_scale(32);
  cfg.constrained_fraction = 0.5;
  const ScenarioGenerator gen(cfg);
  const Instance inst = gen.generate(11);
  std::size_t members = 0;
  for (const PlacementConstraint& c : inst.requests.constraints) {
    members += c.vms.size();
  }
  EXPECT_LE(members, inst.n() / 2 + 1);
  EXPECT_GT(members, 0u);
}

TEST(ScenarioGenerator, EachVmInAtMostOneGroup) {
  ScenarioConfig cfg = ScenarioConfig::paper_scale(64);
  cfg.constrained_fraction = 0.8;
  const ScenarioGenerator gen(cfg);
  const Instance inst = gen.generate(5);
  std::vector<int> membership(inst.n(), 0);
  for (const PlacementConstraint& c : inst.requests.constraints) {
    for (std::uint32_t k : c.vms) {
      ++membership[k];
    }
  }
  for (int m : membership) {
    EXPECT_LE(m, 1);
  }
}

TEST(ScenarioGenerator, SeparateRequestBatches) {
  const ScenarioGenerator gen(ScenarioConfig::paper_scale(16));
  const Infrastructure infra = gen.generate_infrastructure(4);
  const RequestSet a = gen.generate_requests(infra, 10, 100);
  const RequestSet b = gen.generate_requests(infra, 10, 101);
  EXPECT_EQ(a.vms.size(), 10u);
  EXPECT_EQ(b.vms.size(), 10u);
  bool differ = false;
  for (std::size_t k = 0; k < 10 && !differ; ++k) {
    differ = a.vms[k].demand != b.vms[k].demand;
  }
  EXPECT_TRUE(differ);
}

TEST(ScenarioGenerator, DefaultCatalogsAreSane) {
  for (const ServerClassParams& c : default_server_classes()) {
    EXPECT_GT(c.cpu_cores, 0.0);
    EXPECT_GT(c.weight, 0.0);
    EXPECT_GT(c.opex, 0.0);
  }
  for (const VmFlavorParams& f : default_vm_flavors()) {
    EXPECT_GT(f.cpu_cores, 0.0);
    EXPECT_GT(f.weight, 0.0);
  }
  // Largest flavor must fit the largest server class (satisfiability).
  double max_vm_cpu = 0.0;
  for (const VmFlavorParams& f : default_vm_flavors()) {
    max_vm_cpu = std::max(max_vm_cpu, f.cpu_cores);
  }
  double max_srv_cpu = 0.0;
  for (const ServerClassParams& c : default_server_classes()) {
    max_srv_cpu = std::max(max_srv_cpu, c.cpu_cores);
  }
  EXPECT_LE(max_vm_cpu, max_srv_cpu);
}

// --- strategic-consumer mode ---

ScenarioConfig strategic_config(double fraction) {
  ScenarioConfig cfg = ScenarioConfig::paper_scale(32);
  cfg.consumers = 8;
  cfg.strategic.strategic_fraction = fraction;
  cfg.strategic.profiles = default_strategy_profiles();
  return cfg;
}

void expect_same_requests(const RequestSet& a, const RequestSet& b,
                          bool compare_consumers) {
  ASSERT_EQ(a.vms.size(), b.vms.size());
  for (std::size_t k = 0; k < a.vms.size(); ++k) {
    EXPECT_EQ(a.vms[k].demand, b.vms[k].demand) << "vm " << k;
    EXPECT_EQ(a.vms[k].true_demand, b.vms[k].true_demand) << "vm " << k;
    EXPECT_DOUBLE_EQ(a.vms[k].qos_guarantee, b.vms[k].qos_guarantee);
    EXPECT_DOUBLE_EQ(a.vms[k].downtime_cost, b.vms[k].downtime_cost);
    EXPECT_DOUBLE_EQ(a.vms[k].migration_cost, b.vms[k].migration_cost);
    if (compare_consumers) {
      EXPECT_EQ(a.vms[k].consumer, b.vms[k].consumer);
    }
  }
  ASSERT_EQ(a.constraints.size(), b.constraints.size());
  for (std::size_t c = 0; c < a.constraints.size(); ++c) {
    EXPECT_EQ(a.constraints[c].kind, b.constraints[c].kind);
    EXPECT_EQ(a.constraints[c].vms, b.constraints[c].vms);
  }
}

TEST(StrategicGenerator, BitIdenticalAcrossRepeatRuns) {
  // Two independent generator instances replay the same strategic batch
  // exactly: demands, hidden true demands, and padded groups.
  const ScenarioGenerator gen_a(strategic_config(0.5));
  const ScenarioGenerator gen_b(strategic_config(0.5));
  const Instance a = gen_a.generate(7);
  const Instance b = gen_b.generate(7);
  expect_same_requests(a.requests, b.requests, /*compare_consumers=*/true);
  bool any_strategic = false;
  for (const VmRequest& vm : a.requests.vms) {
    any_strategic = any_strategic || !vm.true_demand.empty();
  }
  EXPECT_TRUE(any_strategic);
}

TEST(StrategicGenerator, FractionZeroMatchesHonestGenerator) {
  // Differential guarantee: the strategic pass consumes nothing from
  // the honest stream, so fraction 0 reproduces the legacy output
  // element for element (only the consumer tags are new).
  const ScenarioGenerator legacy(ScenarioConfig::paper_scale(32));
  const ScenarioGenerator tagged(strategic_config(0.0));
  const Instance a = legacy.generate(11);
  const Instance b = tagged.generate(11);
  expect_same_requests(a.requests, b.requests, /*compare_consumers=*/false);
  for (const VmRequest& vm : a.requests.vms) {
    EXPECT_EQ(vm.consumer, 0u);
    EXPECT_TRUE(vm.true_demand.empty());
  }
  for (const VmRequest& vm : b.requests.vms) {
    EXPECT_TRUE(vm.true_demand.empty());  // nobody misreports
  }
}

TEST(StrategicGenerator, DisabledProfilesLeaveNoFingerprints) {
  // At fraction 0 the profile contents and strategy seed must be inert.
  ScenarioConfig loud = strategic_config(0.0);
  loud.strategic.strategy_seed ^= 0xABCDEFULL;
  loud.strategic.profiles[0].inflation_max = 50.0;
  const Instance a = ScenarioGenerator(strategic_config(0.0)).generate(13);
  const Instance b = ScenarioGenerator(loud).generate(13);
  expect_same_requests(a.requests, b.requests, /*compare_consumers=*/true);
}

TEST(StrategicGenerator, InflationOnlyRaisesReportedDemand) {
  const ScenarioConfig cfg = strategic_config(0.5);
  const ScenarioGenerator gen(cfg);
  const Instance inst = gen.generate(19);

  std::vector<double> max_eff(inst.h(), 0.0);
  for (std::size_t j = 0; j < inst.m(); ++j) {
    for (std::size_t l = 0; l < inst.h(); ++l) {
      max_eff[l] =
          std::max(max_eff[l], inst.infra.server(j).effective_capacity(l));
    }
  }
  const std::vector<char> strategic =
      strategic_consumer_mask(cfg.strategic, cfg.consumers);
  std::size_t strategic_vms = 0;
  for (const VmRequest& vm : inst.requests.vms) {
    if (vm.true_demand.empty()) {
      continue;
    }
    ++strategic_vms;
    ASSERT_EQ(vm.true_demand.size(), vm.demand.size());
    for (std::size_t l = 0; l < vm.demand.size(); ++l) {
      EXPECT_GE(vm.demand[l], vm.true_demand[l] - 1e-12);
      EXPECT_LE(vm.demand[l], max_eff[l] + 1e-12);  // stays placeable
    }
    // Misreports only come from consumers in the strategic set.
    ASSERT_LT(vm.consumer, strategic.size());
    EXPECT_TRUE(strategic[vm.consumer]);
  }
  EXPECT_GT(strategic_vms, 0u);
}

TEST(StrategicGenerator, PaddingPreservesOneGroupPerVm) {
  ScenarioConfig cfg = strategic_config(1.0);
  cfg.constrained_fraction = 0.5;
  for (StrategyProfile& profile : cfg.strategic.profiles) {
    profile.pad_anti_affinity_probability = 1.0;  // force padding
  }
  const ScenarioGenerator gen(cfg);
  const Instance inst = gen.generate(29);

  std::vector<int> membership(inst.n(), 0);
  bool any_padded = false;
  for (const PlacementConstraint& c : inst.requests.constraints) {
    EXPECT_GE(c.vms.size(), 2u);
    any_padded =
        any_padded || c.kind == RelationKind::kDifferentServers;
    for (std::uint32_t k : c.vms) {
      ++membership[k];
    }
  }
  EXPECT_TRUE(any_padded);
  for (int m : membership) {
    EXPECT_LE(m, 1);
  }
  EXPECT_TRUE(inst.requests.valid(inst.h()));
}

TEST(StrategicGenerator, ConsumerTagsCoverTheConfiguredRange) {
  const ScenarioConfig cfg = strategic_config(0.25);
  const Instance inst = ScenarioGenerator(cfg).generate(31);
  std::vector<std::size_t> per_consumer(cfg.consumers, 0);
  for (const VmRequest& vm : inst.requests.vms) {
    ASSERT_LT(vm.consumer, cfg.consumers);
    ++per_consumer[vm.consumer];
  }
  for (std::size_t c = 0; c < per_consumer.size(); ++c) {
    EXPECT_GT(per_consumer[c], 0u) << "consumer " << c;
  }
}

}  // namespace
}  // namespace iaas
