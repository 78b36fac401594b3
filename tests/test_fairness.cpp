// Fairness/welfare metric layer and the strategic-consumer workload
// mode: closed-form metric values, relabeling invariance, fail-loud
// scenario validation, rank-mask properties, and bit-identical sim
// fingerprints with strategic consumers enabled.
#include "model/fairness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "algo/nsga_allocators.h"
#include "algo/round_robin.h"
#include "model/placement_state.h"
#include "sim/simulator.h"
#include "tests/test_util.h"
#include "workload/generator.h"
#include "workload/strategic.h"

namespace iaas {
namespace {

using test::make_instance;

// --- Jain's index, closed form ---

TEST(JainIndex, UniformSharesScoreOne) {
  const std::vector<double> shares = {0.25, 0.25, 0.25, 0.25};
  EXPECT_DOUBLE_EQ(jain_index(shares), 1.0);
}

TEST(JainIndex, SingleHogScoresOneOverN) {
  const std::vector<double> shares = {1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(shares), 0.25);
  const std::vector<double> ten(10, 0.0);
  std::vector<double> hog = ten;
  hog[7] = 3.5;
  EXPECT_DOUBLE_EQ(jain_index(hog), 0.1);
}

TEST(JainIndex, EmptyAndAllZeroScoreOne) {
  EXPECT_DOUBLE_EQ(jain_index(std::vector<double>{}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index(std::vector<double>(5, 0.0)), 1.0);
}

TEST(JainIndex, ScaleInvariant) {
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> b = a;
  for (double& x : b) {
    x *= 100.0;
  }
  EXPECT_DOUBLE_EQ(jain_index(a), jain_index(b));
}

// --- compute_fairness, closed form ---
//
// 1 DC x 2 servers at capacity {10,10,10} (factor 1) -> fleet totals
// {20,20,20}.  Consumer 0 is honest (demand {4,4,4}, dominant size
// 4/20 = 0.2); consumer 1 reports {8,4,4} hiding a true {4,4,4}
// (reported dominant 0.4, actual 0.2).
Instance two_consumer_instance() {
  Instance inst = make_instance(1, 2, {10.0, 10.0, 10.0},
                                {{4.0, 4.0, 4.0}, {8.0, 4.0, 4.0}});
  inst.requests.vms[0].consumer = 0;
  inst.requests.vms[1].consumer = 1;
  inst.requests.vms[1].true_demand = {4.0, 4.0, 4.0};
  return inst;
}

TEST(ComputeFairness, BothServedIsPerfectlyFairButInefficient) {
  const Instance inst = two_consumer_instance();
  Placement p(2);
  p.assign(0, 0);
  p.assign(1, 1);
  const FairnessReport report = compute_fairness(inst, p);

  ASSERT_EQ(report.consumers.size(), 2u);
  EXPECT_EQ(report.strategic_consumers, 1u);
  EXPECT_EQ(report.strategic_vms, 1u);
  EXPECT_FALSE(report.consumers[0].strategic);
  EXPECT_TRUE(report.consumers[1].strategic);
  for (const ConsumerShare& share : report.consumers) {
    EXPECT_DOUBLE_EQ(share.requested, 0.2);
    EXPECT_DOUBLE_EQ(share.served, 0.2);
    EXPECT_DOUBLE_EQ(share.welfare, 1.0);
  }
  EXPECT_DOUBLE_EQ(report.jain, 1.0);
  EXPECT_DOUBLE_EQ(report.envy, 0.0);
  EXPECT_DOUBLE_EQ(report.honest_welfare, 1.0);
  EXPECT_DOUBLE_EQ(report.strategic_welfare, 1.0);
  // Served actual 0.4 against served reported 0.6: the inflated booking
  // wastes a third of what it reserved.
  EXPECT_DOUBLE_EQ(report.utilization_efficiency, 2.0 / 3.0);
}

TEST(ComputeFairness, RejectionShowsUpAsEnvyAndLostWelfare) {
  const Instance inst = two_consumer_instance();
  Placement p(2);
  p.assign(0, 0);  // consumer 1's VM is rejected
  const FairnessReport report = compute_fairness(inst, p);

  EXPECT_DOUBLE_EQ(report.consumers[0].welfare, 1.0);
  EXPECT_DOUBLE_EQ(report.consumers[1].welfare, 0.0);
  // Shares {0.2, 0} -> Jain = 1/2; envy = ((1-1) + (1-0)) / 2.
  EXPECT_DOUBLE_EQ(report.jain, 0.5);
  EXPECT_DOUBLE_EQ(report.envy, 0.5);
  EXPECT_DOUBLE_EQ(report.honest_welfare, 1.0);
  EXPECT_DOUBLE_EQ(report.strategic_welfare, 0.0);
  // Nothing misreported lands on a server: only the honest VM counts.
  EXPECT_DOUBLE_EQ(report.utilization_efficiency, 1.0);
}

TEST(ComputeFairness, EmptyPlacementIsVacuouslyFair) {
  Instance inst = make_instance(1, 2, {10.0, 10.0, 10.0}, {});
  const FairnessReport report = compute_fairness(inst, Placement(0));
  EXPECT_TRUE(report.consumers.empty());
  EXPECT_DOUBLE_EQ(report.jain, 1.0);
  EXPECT_DOUBLE_EQ(report.envy, 0.0);
  EXPECT_DOUBLE_EQ(report.utilization_efficiency, 1.0);
  EXPECT_DOUBLE_EQ(report.energy_cost, 0.0);
}

// --- energy model, closed form ---

TEST(EnergyCost, PoweredOffServersDrawNothing) {
  // A powered 10-CPU server at CPU load x draws 10 W per unit of CPU
  // capacity times (0.4 + 0.6 * min(x, 1)); a server hosting no VM draws
  // nothing.
  const Instance inst = two_consumer_instance();

  Placement both(2);  // reported CPU loads 0.4 and 0.8
  both.assign(0, 0);
  both.assign(1, 1);
  EXPECT_DOUBLE_EQ(compute_fairness(inst, both).energy_cost,
                   100.0 * (0.4 + 0.6 * 0.4) + 100.0 * (0.4 + 0.6 * 0.8));

  Placement packed(2);  // server 0 saturates at load 1.2, server 1 is off
  packed.assign(0, 0);
  packed.assign(1, 0);
  EXPECT_DOUBLE_EQ(compute_fairness(inst, packed).energy_cost, 100.0);

  EXPECT_DOUBLE_EQ(compute_fairness(inst, Placement(2)).energy_cost, 0.0);
}

TEST(EnergyCost, LoadTermRespondsToReportedDemand) {
  // A hotter server draws more; the draw is bounded by the all-idle
  // floor and the full-load peak.
  const Instance inst = two_consumer_instance();

  Placement both(2);
  both.assign(0, 0);
  both.assign(1, 1);
  const double energy = compute_fairness(inst, both).energy_cost;
  EXPECT_GT(energy, 2 * 10.0 * 10.0 * 0.4);  // above the idle floor
  EXPECT_LT(energy, 2 * 10.0 * 10.0);        // below dual full load
}

// --- relabeling invariance ---

// Metrics must not depend on which integers name the consumers or in
// which order the VMs arrive: permute both and compare.
TEST(ComputeFairness, InvariantUnderConsumerAndVmRelabeling) {
  ScenarioConfig cfg = ScenarioConfig::paper_scale(16);
  cfg.vms = 24;
  cfg.consumers = 6;
  cfg.strategic.strategic_fraction = 0.5;
  cfg.strategic.profiles = default_strategy_profiles();
  Instance inst = ScenarioGenerator(cfg).generate(23);

  // Deterministic placement: round-robin VMs over servers.
  Placement p(inst.n());
  for (std::size_t k = 0; k < inst.n(); ++k) {
    if (k % 5 != 4) {  // leave every fifth VM rejected
      p.assign(k, static_cast<std::uint32_t>(k % inst.m()));
    }
  }
  const FairnessReport base = compute_fairness(inst, p);

  // Relabeled copy: consumer c -> 1000 - 3c, VM order reversed.
  Instance relabeled = ScenarioGenerator(cfg).generate(23);
  const std::size_t n = relabeled.n();
  std::reverse(relabeled.requests.vms.begin(), relabeled.requests.vms.end());
  for (PlacementConstraint& c : relabeled.requests.constraints) {
    for (std::uint32_t& k : c.vms) {
      k = static_cast<std::uint32_t>(n - 1) - k;
    }
    std::sort(c.vms.begin(), c.vms.end());
  }
  for (VmRequest& vm : relabeled.requests.vms) {
    vm.consumer = 1000 - 3 * vm.consumer;
  }
  Placement q(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t original = n - 1 - k;
    if (p.is_assigned(original)) {
      q.assign(k, static_cast<std::uint32_t>(p.server_of(original)));
    }
  }
  const FairnessReport moved = compute_fairness(relabeled, q);

  EXPECT_NEAR(moved.jain, base.jain, 1e-12);
  EXPECT_NEAR(moved.envy, base.envy, 1e-12);
  EXPECT_NEAR(moved.utilization_efficiency, base.utilization_efficiency,
              1e-12);
  EXPECT_NEAR(moved.honest_welfare, base.honest_welfare, 1e-12);
  EXPECT_NEAR(moved.strategic_welfare, base.strategic_welfare, 1e-12);
  EXPECT_NEAR(moved.energy_cost, base.energy_cost, 1e-12);
  EXPECT_EQ(moved.strategic_consumers, base.strategic_consumers);
  EXPECT_EQ(moved.strategic_vms, base.strategic_vms);

  // The multiset of per-consumer welfare survives the renaming.
  std::vector<double> before;
  std::vector<double> after;
  for (const ConsumerShare& share : base.consumers) {
    before.push_back(share.welfare);
  }
  for (const ConsumerShare& share : moved.consumers) {
    after.push_back(share.welfare);
  }
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(after[i], before[i], 1e-12);
  }
}

// --- fail-loud scenario validation ---

TEST(ValidateScenario, AcceptsPaperScaleAndDefaultProfiles) {
  EXPECT_TRUE(validate_scenario(ScenarioConfig::paper_scale(32)).empty());
  ScenarioConfig cfg = ScenarioConfig::paper_scale(32);
  cfg.consumers = 8;
  cfg.strategic.strategic_fraction = 0.25;
  cfg.strategic.profiles = default_strategy_profiles();
  EXPECT_TRUE(validate_scenario(cfg).empty());
}

bool any_finding_contains(const std::vector<std::string>& findings,
                          const std::string& needle) {
  return std::any_of(findings.begin(), findings.end(),
                     [&needle](const std::string& finding) {
                       return finding.find(needle) != std::string::npos;
                     });
}

TEST(ValidateScenario, RejectsBadStrategicKnobs) {
  ScenarioConfig good = ScenarioConfig::paper_scale(32);
  good.consumers = 8;
  good.strategic.strategic_fraction = 0.25;
  good.strategic.profiles = default_strategy_profiles();

  {
    ScenarioConfig cfg = good;
    cfg.strategic.strategic_fraction = -0.1;
    EXPECT_TRUE(any_finding_contains(validate_scenario(cfg),
                                     "strategic_fraction must not be"));
  }
  {
    ScenarioConfig cfg = good;
    cfg.strategic.strategic_fraction = 1.5;
    EXPECT_TRUE(any_finding_contains(validate_scenario(cfg),
                                     "must not exceed 1"));
  }
  {
    ScenarioConfig cfg = good;
    cfg.consumers = 0;
    EXPECT_TRUE(any_finding_contains(validate_scenario(cfg),
                                     "require consumers > 0"));
  }
  {
    ScenarioConfig cfg = good;
    cfg.strategic.profiles.clear();
    EXPECT_TRUE(any_finding_contains(validate_scenario(cfg),
                                     "empty strategy profile set"));
  }
  {
    ScenarioConfig cfg = good;
    cfg.strategic.profiles[0].inflation_min = 0.8;
    EXPECT_TRUE(any_finding_contains(validate_scenario(cfg),
                                     "inflation_min must be >= 1"));
  }
  {
    ScenarioConfig cfg = good;
    cfg.strategic.profiles[1].inflation_max =
        cfg.strategic.profiles[1].inflation_min - 0.1;
    EXPECT_TRUE(any_finding_contains(validate_scenario(cfg),
                                     "inflation_max must be >="));
  }
  {
    ScenarioConfig cfg = good;
    cfg.strategic.profiles[0].pad_anti_affinity_probability = 1.2;
    EXPECT_TRUE(any_finding_contains(validate_scenario(cfg),
                                     "pad_anti_affinity_probability"));
  }
  {
    ScenarioConfig cfg = good;
    cfg.strategic.profiles[0].pad_group_size = 1;
    EXPECT_TRUE(any_finding_contains(validate_scenario(cfg),
                                     "pad_group_size"));
  }
  {
    ScenarioConfig cfg = good;
    cfg.strategic.profiles[2].burst_probability = -0.5;
    EXPECT_TRUE(any_finding_contains(validate_scenario(cfg),
                                     "burst_probability"));
  }
  {
    ScenarioConfig cfg = good;
    cfg.strategic.profiles[2].burst_multiplier = 0.5;
    EXPECT_TRUE(any_finding_contains(validate_scenario(cfg),
                                     "burst_multiplier must be >= 1"));
  }
}

TEST(ValidateScenario, RejectsBadBaseDistribution) {
  {
    ScenarioConfig cfg = ScenarioConfig::paper_scale(32);
    cfg.factor_min = 0.0;
    EXPECT_TRUE(
        any_finding_contains(validate_scenario(cfg), "factor range"));
  }
  {
    ScenarioConfig cfg = ScenarioConfig::paper_scale(32);
    cfg.constrained_fraction = -0.2;
    EXPECT_TRUE(any_finding_contains(validate_scenario(cfg),
                                     "constrained_fraction"));
  }
  {
    ScenarioConfig cfg = ScenarioConfig::paper_scale(32);
    cfg.group_size_min = 1;
    EXPECT_TRUE(any_finding_contains(validate_scenario(cfg),
                                     "relationship groups"));
  }
}

TEST(ValidateScenarioDeathTest, GeneratorAbortsOnFirstFinding) {
  ScenarioConfig cfg = ScenarioConfig::paper_scale(32);
  cfg.consumers = 8;
  cfg.strategic.strategic_fraction = 0.25;  // enabled, but no profiles
  EXPECT_DEATH({ ScenarioGenerator gen(cfg); }, "strategy profile set");
}

// --- strategic mask properties ---

std::size_t mask_count(const std::vector<char>& mask) {
  return static_cast<std::size_t>(
      std::count(mask.begin(), mask.end(), static_cast<char>(1)));
}

TEST(StrategicMask, ExactRankCountAtEveryFraction) {
  StrategicConfig config;
  config.profiles = default_strategy_profiles();
  const std::uint32_t n = 16;
  for (double fraction : {0.0, 0.01, 0.1, 0.25, 0.5, 0.99, 1.0}) {
    config.strategic_fraction = fraction;
    const std::vector<char> mask = strategic_consumer_mask(config, n);
    const std::size_t expected =
        fraction > 0.0
            ? std::min<std::size_t>(
                  n, static_cast<std::size_t>(std::ceil(fraction * n)))
            : 0;
    EXPECT_EQ(mask_count(mask), expected) << "fraction " << fraction;
    if (fraction > 0.0) {
      EXPECT_GE(mask_count(mask), 1u);  // any positive fraction recruits
    }
  }
}

TEST(StrategicMask, SetsAreNestedAsTheFractionGrows) {
  StrategicConfig config;
  config.profiles = default_strategy_profiles();
  const std::uint32_t n = 24;
  std::vector<char> previous(n, 0);
  for (double fraction : {0.1, 0.25, 0.5, 0.75, 1.0}) {
    config.strategic_fraction = fraction;
    const std::vector<char> mask = strategic_consumer_mask(config, n);
    for (std::uint32_t c = 0; c < n; ++c) {
      if (previous[c]) {
        EXPECT_TRUE(mask[c]) << "consumer " << c << " dropped at fraction "
                             << fraction;
      }
    }
    previous = mask;
  }
}

TEST(StrategicMask, DeterministicAndSeedSensitive) {
  StrategicConfig config;
  config.strategic_fraction = 0.5;
  config.profiles = default_strategy_profiles();
  const std::vector<char> a = strategic_consumer_mask(config, 32);
  const std::vector<char> b = strategic_consumer_mask(config, 32);
  EXPECT_EQ(a, b);
  config.strategy_seed ^= 0xDEADBEEFULL;
  const std::vector<char> c = strategic_consumer_mask(config, 32);
  EXPECT_EQ(mask_count(c), mask_count(a));  // same size...
  EXPECT_NE(c, a);                          // ...different members
}

// --- sim-level fairness columns and fingerprint invariance ---

SimConfig strategic_sim(double fraction) {
  SimConfig cfg;
  cfg.windows = 4;
  cfg.arrivals_per_window_mean = 8.0;
  cfg.departure_probability = 0.15;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  cfg.scenario.vms = 0;
  cfg.scenario.consumers = 6;
  cfg.scenario.strategic.strategic_fraction = fraction;
  cfg.scenario.strategic.profiles = default_strategy_profiles();
  cfg.retry.max_attempts = 2;
  return cfg;
}

TEST(SimFairness, ColumnsPopulatedOnlyWhenConsumersExist) {
  CloudSimulator with(strategic_sim(0.5),
                      std::make_unique<RoundRobinAllocator>());
  bool any_window = false;
  for (const WindowMetrics& row : with.run(3)) {
    if (row.fairness.consumers == 0) {  // empty window: block absent
      continue;
    }
    any_window = true;
    EXPECT_GT(row.fairness.consumers, 0u);
    EXPECT_GE(row.fairness.jain_index, 0.0);
    EXPECT_LE(row.fairness.jain_index, 1.0 + 1e-12);
    EXPECT_GE(row.fairness.long_term_jain, 0.0);
    EXPECT_LE(row.fairness.long_term_jain, 1.0 + 1e-12);
    EXPECT_GE(row.fairness.energy_cost, 0.0);
  }
  EXPECT_TRUE(any_window);

  SimConfig legacy = strategic_sim(0.0);
  legacy.scenario.consumers = 0;
  legacy.scenario.strategic.strategic_fraction = 0.0;
  CloudSimulator without(legacy, std::make_unique<RoundRobinAllocator>());
  for (const WindowMetrics& row : without.run(3)) {
    EXPECT_EQ(row.fairness.consumers, 0u);  // block stays absent
  }
}

TEST(SimFairness, StrategicConsumersActuallyMisreport) {
  CloudSimulator sim(strategic_sim(0.5),
                     std::make_unique<RoundRobinAllocator>());
  std::size_t strategic_vms = 0;
  for (const WindowMetrics& row : sim.run(3)) {
    strategic_vms += row.fairness.strategic_vms;
  }
  EXPECT_GT(strategic_vms, 0u);
}

std::uint64_t strategic_fingerprint(std::size_t threads,
                                    std::uint64_t seed) {
  EaAllocatorOptions options;
  options.nsga.population_size = 16;
  options.nsga.max_evaluations = 320;
  options.nsga.reference_divisions = 4;
  options.nsga.threads = threads;
  CloudSimulator sim(strategic_sim(0.25),
                     std::make_unique<Nsga3TabuAllocator>(options));
  return deterministic_fingerprint(sim.run(seed));
}

TEST(SimFairness, FingerprintBitIdenticalAcrossThreadCounts) {
  const std::uint64_t serial = strategic_fingerprint(1, 17);
  EXPECT_EQ(strategic_fingerprint(2, 17), serial);
  EXPECT_EQ(strategic_fingerprint(4, 17), serial);
  EXPECT_EQ(strategic_fingerprint(1, 17), serial);
  EXPECT_NE(strategic_fingerprint(1, 18), serial);
}

TEST(SimFairness, FingerprintSeesTheStrategicFraction) {
  // The fairness block is hashed: turning misreporting on must move the
  // digest even though the honest workload stream is identical.
  EaAllocatorOptions options;
  options.nsga.population_size = 16;
  options.nsga.max_evaluations = 320;
  options.nsga.reference_divisions = 4;
  options.nsga.threads = 1;
  CloudSimulator honest(strategic_sim(0.0),
                        std::make_unique<Nsga3TabuAllocator>(options));
  CloudSimulator gamed(strategic_sim(0.5),
                       std::make_unique<Nsga3TabuAllocator>(options));
  EXPECT_NE(deterministic_fingerprint(honest.run(17)),
            deterministic_fingerprint(gamed.run(17)));
}

}  // namespace
}  // namespace iaas
