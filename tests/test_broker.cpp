// The multi-cloud brokering subsystem: market config validation
// (fail-loud), the pricing stack (billing models x spot series x
// shocks), the provider outage lifecycle, assignment units and their
// split into standalone request sets, broker routing, the cross-cloud
// redirect budget (a decommissioned home provider's orphans must be
// permanently rejected, not circulate forever), the lifecycle columns
// of brokered windows, warm-start front hand-off, per-provider metric
// columns in the deterministic fingerprint, and bit-identical brokered
// replays across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "broker/broker.h"
#include "broker/market.h"
#include "broker/multicloud_sim.h"
#include "common/rng.h"
#include "io/trace_json.h"
#include "model/assignment_units.h"
#include "sim/retry_queue.h"
#include "sim/simulator.h"
#include "tests/trace_text.h"
#include "workload/generator.h"
#include "workload/market_events.h"

namespace iaas {
namespace {

ScenarioConfig tiny_scenario(std::uint32_t servers = 16,
                             std::uint32_t vms = 24) {
  ScenarioConfig cfg;
  cfg.datacenters = 1;
  cfg.total_servers = servers;
  cfg.servers_per_leaf = 8;
  cfg.vms = vms;
  return cfg;
}

CloudMarketConfig two_provider_market(std::uint32_t alpha_servers = 16,
                                      std::uint32_t beta_servers = 16) {
  CloudMarketConfig market;
  ProviderConfig alpha;
  alpha.id = "alpha";
  alpha.scenario = tiny_scenario(alpha_servers);
  alpha.pricing.billing = BillingModel::kOnDemand;
  alpha.pricing.on_demand_multiplier = 1.0;

  ProviderConfig beta;
  beta.id = "beta";
  beta.scenario = tiny_scenario(beta_servers);
  beta.pricing.billing = BillingModel::kReserved;
  beta.pricing.reserved_multiplier = 0.6;

  market.providers = {alpha, beta};
  return market;
}

MultiCloudSimConfig tiny_sim_config() {
  MultiCloudSimConfig cfg;
  cfg.windows = 6;
  cfg.arrival_schedule = {8, 6, 4};
  cfg.departure_probability = 0.1;
  cfg.retry.max_attempts = 3;
  cfg.market = two_provider_market();
  cfg.request_shape = tiny_scenario();
  return cfg;
}

bool has_finding(const std::vector<std::string>& findings,
                 const std::string& needle) {
  return std::any_of(findings.begin(), findings.end(),
                     [&needle](const std::string& f) {
                       return f.find(needle) != std::string::npos;
                     });
}

// --- market config validation (fail-loud) ---------------------------

TEST(ValidateMarket, CleanConfigHasNoFindings) {
  EXPECT_TRUE(validate_market(two_provider_market()).empty());
}

TEST(ValidateMarket, EmptyProviderList) {
  EXPECT_TRUE(has_finding(validate_market(CloudMarketConfig{}),
                          "provider list is empty"));
}

TEST(ValidateMarket, DuplicateAndEmptyIds) {
  CloudMarketConfig market = two_provider_market();
  market.providers[1].id = "alpha";
  EXPECT_TRUE(has_finding(validate_market(market), "duplicates id"));
  market.providers[1].id = "";
  EXPECT_TRUE(has_finding(validate_market(market), "empty id"));
}

TEST(ValidateMarket, NonPositivePrices) {
  CloudMarketConfig market = two_provider_market();
  market.providers[0].pricing.on_demand_multiplier = -1.0;
  EXPECT_TRUE(has_finding(validate_market(market),
                          "on_demand_multiplier must be positive"));

  market = two_provider_market();
  market.providers[1].pricing.reserved_multiplier = 0.0;
  EXPECT_TRUE(has_finding(validate_market(market),
                          "reserved_multiplier must be positive"));

  market = two_provider_market();
  market.providers[0].pricing.spot.multipliers = {1.0, -0.5};
  EXPECT_TRUE(has_finding(validate_market(market),
                          "non-positive multiplier"));

  market = two_provider_market();
  market.providers[0].pricing.shocks = {{/*window=*/0, /*duration=*/1,
                                         /*factor=*/0.0}};
  EXPECT_TRUE(has_finding(validate_market(market),
                          "shock factor must be positive"));
}

TEST(ValidateMarket, OutOfRangeOutageScript) {
  CloudMarketConfig market = two_provider_market();
  ProviderOutageScript outage;
  outage.provider = 7;
  market.outages = {outage};
  EXPECT_TRUE(has_finding(validate_market(market), "beyond the market"));
}

TEST(MarketContracts, ConstructorRefusesInvalidConfig) {
  CloudMarketConfig market = two_provider_market();
  market.providers[0].pricing.on_demand_multiplier = -2.0;
  EXPECT_DEATH({ CloudMarket bad(market, 1); }, "must be positive");
  EXPECT_DEATH({ CloudMarket none(CloudMarketConfig{}, 1); }, "empty");
}

// --- pricing --------------------------------------------------------

TEST(ProviderPricing, BillingBases) {
  ProviderPricing pricing;
  pricing.on_demand_multiplier = 1.25;
  pricing.reserved_multiplier = 0.6;
  pricing.billing = BillingModel::kOnDemand;
  EXPECT_DOUBLE_EQ(pricing.price_multiplier(0), 1.25);
  pricing.billing = BillingModel::kReserved;
  EXPECT_DOUBLE_EQ(pricing.price_multiplier(0), 0.6);
}

TEST(ProviderPricing, SpotSeriesWrapsAroundTheHorizon) {
  ProviderPricing pricing;
  pricing.billing = BillingModel::kSpot;
  pricing.on_demand_multiplier = 2.0;
  pricing.spot.multipliers = {0.5, 1.0, 1.5};
  EXPECT_DOUBLE_EQ(pricing.price_multiplier(0), 1.0);
  EXPECT_DOUBLE_EQ(pricing.price_multiplier(2), 3.0);
  EXPECT_DOUBLE_EQ(pricing.price_multiplier(3), 1.0);  // wraps
  EXPECT_DOUBLE_EQ(pricing.price_multiplier(5), 3.0);
}

TEST(ProviderPricing, ShocksMultiplyWhileActive) {
  ProviderPricing pricing;  // on-demand 1.0
  pricing.shocks = {{/*window=*/2, /*duration=*/2, /*factor=*/3.0},
                    {/*window=*/3, /*duration=*/1, /*factor=*/2.0}};
  EXPECT_DOUBLE_EQ(pricing.price_multiplier(1), 1.0);
  EXPECT_DOUBLE_EQ(pricing.price_multiplier(2), 3.0);
  EXPECT_DOUBLE_EQ(pricing.price_multiplier(3), 6.0);  // overlap
  EXPECT_DOUBLE_EQ(pricing.price_multiplier(4), 1.0);
}

TEST(MarketEvents, DiurnalSpotSeriesDeterministicAndPositive) {
  const SpotPriceSeries a =
      diurnal_spot_series(16, 0.8, 0.3, 8, 0.05, 11);
  const SpotPriceSeries b =
      diurnal_spot_series(16, 0.8, 0.3, 8, 0.05, 11);
  ASSERT_EQ(a.multipliers.size(), 16u);
  EXPECT_EQ(a.multipliers, b.multipliers);
  for (double m : a.multipliers) {
    EXPECT_GT(m, 0.0);
  }
  const SpotPriceSeries c =
      diurnal_spot_series(16, 0.8, 0.3, 8, 0.05, 12);
  EXPECT_NE(a.multipliers, c.multipliers);
}

// --- provider outage lifecycle --------------------------------------

TEST(CloudMarket, ScriptedOutageRecoversAfterDuration) {
  CloudMarketConfig config = two_provider_market();
  ProviderOutageScript outage;
  outage.window = 1;
  outage.provider = 0;
  outage.duration = 2;
  config.outages = {outage};
  CloudMarket market(config, 5);

  EXPECT_TRUE(market.advance(0).empty());
  EXPECT_EQ(market.online_count(), 2u);

  const std::vector<MarketEvent> down = market.advance(1);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].kind, MarketEventKind::kProviderOutage);
  EXPECT_EQ(down[0].provider, 0u);
  EXPECT_FALSE(market.provider(0).online());
  EXPECT_EQ(market.online_count(), 1u);

  EXPECT_TRUE(market.advance(2).empty());  // still dark
  EXPECT_FALSE(market.provider(0).online());

  const std::vector<MarketEvent> up = market.advance(3);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].kind, MarketEventKind::kProviderRecovery);
  EXPECT_TRUE(market.provider(0).online());
  EXPECT_EQ(market.online_count(), 2u);
}

TEST(CloudMarket, DecommissionIsPermanent) {
  CloudMarketConfig config = two_provider_market();
  ProviderOutageScript gone;
  gone.window = 1;
  gone.provider = 1;
  gone.duration = 1;
  gone.decommission = true;
  config.outages = {gone};
  CloudMarket market(config, 5);

  market.advance(0);
  const std::vector<MarketEvent> events = market.advance(1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MarketEventKind::kProviderDecommission);
  for (std::size_t w = 2; w < 10; ++w) {
    EXPECT_TRUE(market.advance(w).empty());
    EXPECT_TRUE(market.provider(1).decommissioned());
    EXPECT_FALSE(market.provider(1).online());
  }
}

TEST(CloudMarket, CheapestMultiplierSkipsOfflineProviders) {
  CloudMarketConfig config = two_provider_market();  // beta at 0.6
  ProviderOutageScript outage;
  outage.window = 0;
  outage.provider = 1;
  outage.duration = 1;
  config.outages = {outage};
  CloudMarket market(config, 5);

  market.advance(0);  // beta dark: only alpha's 1.0 remains
  EXPECT_DOUBLE_EQ(market.cheapest_multiplier(0), 1.0);
  market.advance(1);  // beta back
  EXPECT_DOUBLE_EQ(market.cheapest_multiplier(1), 0.6);
}

// --- assignment units -----------------------------------------------

TEST(AssignmentUnits, TransitiveClosureMergesOverlappingGroups) {
  RequestSet requests;
  requests.vms.resize(6);
  for (VmRequest& vm : requests.vms) {
    vm.demand = {1.0, 1.0, 1.0};
  }
  PlacementConstraint a;
  a.kind = RelationKind::kSameDatacenter;
  a.vms = {0, 2};
  PlacementConstraint b;
  b.kind = RelationKind::kDifferentServers;
  b.vms = {2, 4};
  requests.constraints = {a, b};

  const std::vector<std::vector<std::uint32_t>> units =
      assignment_units(requests);
  // {0,2,4} merged through the shared VM 2; 1, 3, 5 are singletons;
  // units ordered by smallest member.
  ASSERT_EQ(units.size(), 4u);
  EXPECT_EQ(units[0], (std::vector<std::uint32_t>{0, 2, 4}));
  EXPECT_EQ(units[1], (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(units[2], (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(units[3], (std::vector<std::uint32_t>{5}));
}

// split_units hands the admission queue and the routing pool whole
// units, so a relationship group is never split across windows or
// clouds: every constraint must land whole in one unit, re-indexed
// locally, and the units' VMs must be the batch in unit order.
TEST(SplitUnits, ConstraintsLandWholeInOneUnitInUnitOrder) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    RequestSet batch;
    const std::size_t n = 1 + rng.uniform_index(16);
    for (std::size_t k = 0; k < n; ++k) {
      VmRequest vm;
      vm.demand = {1.0, 1.0, 1.0};
      vm.migration_cost = static_cast<double>(k);  // identity tag
      batch.vms.push_back(vm);
    }
    const std::size_t groups = rng.uniform_index(5);
    for (std::size_t g = 0; g < groups; ++g) {
      std::vector<std::uint32_t> members;
      for (std::uint32_t k = 0; k < n; ++k) {
        if (rng.bernoulli(0.25)) {
          members.push_back(k);
        }
      }
      if (members.size() >= 2) {
        const auto kind = rng.bernoulli(0.5)
                              ? RelationKind::kSameDatacenter
                              : RelationKind::kDifferentServers;
        batch.constraints.push_back({kind, std::move(members)});
      }
    }

    const std::vector<std::vector<std::uint32_t>> members =
        assignment_units(batch);
    const std::vector<RequestSet> units = split_units(batch);
    ASSERT_EQ(units.size(), members.size());
    std::vector<double> expected;
    std::vector<double> concatenated;
    std::vector<std::size_t> unit_of(n);
    for (std::size_t u = 0; u < units.size(); ++u) {
      for (const std::uint32_t k : members[u]) {
        expected.push_back(batch.vms[k].migration_cost);
        unit_of[k] = u;
      }
      for (const VmRequest& vm : units[u].vms) {
        concatenated.push_back(vm.migration_cost);
      }
    }
    EXPECT_EQ(concatenated, expected);

    // Batch constraints, in order, are the units' constraints in order.
    std::vector<std::size_t> cursor(units.size(), 0);
    for (const PlacementConstraint& c : batch.constraints) {
      const std::size_t u = unit_of[c.vms.front()];
      ASSERT_LT(cursor[u], units[u].constraints.size());
      const PlacementConstraint& local = units[u].constraints[cursor[u]++];
      EXPECT_EQ(local.kind, c.kind);
      ASSERT_EQ(local.vms.size(), c.vms.size());
      for (std::size_t i = 0; i < c.vms.size(); ++i) {
        ASSERT_LT(local.vms[i], units[u].vms.size());
        EXPECT_EQ(members[u][local.vms[i]], c.vms[i])
            << "relationship group split across units";
      }
    }
    for (std::size_t u = 0; u < units.size(); ++u) {
      EXPECT_EQ(cursor[u], units[u].constraints.size());
      EXPECT_TRUE(units[u].valid(3));
    }
  }
}

// --- broker routing -------------------------------------------------

TEST(BrokerAllocator, RoutePrefersCheapestFeasible) {
  CloudMarket market(two_provider_market(), 7);
  BrokerAllocator broker(market, BrokerConfig{});

  const std::vector<double> demand = {1.0, 1.0, 1.0};
  std::vector<std::vector<double>> load(
      2, std::vector<double>(market.provider(0).infrastructure()
                                 .attribute_count(),
                             0.0));
  std::vector<char> exclude(2, 0);

  // beta (reserved 0.6) beats alpha (on-demand 1.0).
  EXPECT_EQ(broker.route(demand, 0, load, exclude), 1u);
  exclude[1] = 1;
  EXPECT_EQ(broker.route(demand, 0, load, exclude), 0u);
  exclude[0] = 1;
  EXPECT_EQ(broker.route(demand, 0, load, exclude),
            BrokerAllocator::kNoProvider);

  // An absurd demand fits nowhere.
  const std::vector<double> huge = {1e12, 1e12, 1e12};
  std::fill(exclude.begin(), exclude.end(), 0);
  EXPECT_EQ(broker.route(huge, 0, load, exclude),
            BrokerAllocator::kNoProvider);
}

// --- retry queue redirect metadata ----------------------------------

TEST(RetryQueue, CarriesRedirectsAndHomeProvider) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base_windows = 1;
  RetryQueue queue(policy);

  VmRequest vm;
  vm.demand = {1.0};
  ASSERT_TRUE(queue.offer(vm, 1, 0, /*redirects=*/2,
                          /*home_provider=*/1));
  const std::vector<RetryEntry> due = queue.pop_due(5);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].redirects, 2u);
  EXPECT_EQ(due[0].home_provider, 1);

  // Budget exhausted: permanently rejected regardless of metadata.
  EXPECT_FALSE(queue.offer(vm, 3, 0, 2, 1));
}

// --- redirect budget: decommissioned home provider ------------------

TEST(MultiCloudSim, DecommissionedHomeOrphansArePermanentlyRejected) {
  MultiCloudSimConfig cfg;
  cfg.windows = 8;
  cfg.arrival_schedule = {20};  // far beyond beta's capacity alone
  cfg.departure_probability = 0.0;
  cfg.retry.max_attempts = 6;
  cfg.retry.backoff_cap_windows = 1;  // keep retries inside the horizon
  cfg.market = two_provider_market(/*alpha_servers=*/16,
                                   /*beta_servers=*/8);
  ProviderOutageScript gone;
  gone.window = 2;
  gone.provider = 0;  // alpha decommissions: its fleet orphans
  gone.duration = 1;
  gone.decommission = true;
  cfg.market.outages = {gone};
  // No cross-cloud budget at all: every evicted alpha VM is a
  // budget-spent orphan of a dead cloud and must be rejected on the
  // spot (fresh arrivals, home -1, route freely regardless).
  cfg.broker.max_redirects = 0;
  cfg.request_shape = tiny_scenario();

  MultiCloudSimulator sim(cfg);
  const std::vector<WindowMetrics> metrics = sim.run(17);
  ASSERT_EQ(metrics.size(), cfg.windows);

  std::size_t permanent = 0;
  for (const WindowMetrics& row : metrics) {
    permanent += row.permanently_rejected;
  }
  EXPECT_GT(permanent, 0u)
      << "orphans of a decommissioned cloud must be permanently "
         "rejected, not circulate forever";

  // Nothing ever lands back on the decommissioned provider.
  for (std::size_t w = gone.window; w < metrics.size(); ++w) {
    ASSERT_EQ(metrics[w].providers.size(), 2u);
    EXPECT_FALSE(metrics[w].providers[0].online);
    EXPECT_EQ(metrics[w].providers[0].running, 0u);
    EXPECT_GE(metrics[w].offline_providers, 1u);
  }
}

// A brokered run's rows meter its lifecycle: the outage's evictions, the
// retries they cause and the permanent rejections add up in summarize,
// and the scripted server fault shows in the fault columns.
TEST(MultiCloudSim, RowsMeterTheLifecycle) {
  MultiCloudSimConfig cfg = tiny_sim_config();
  ProviderOutageScript outage;
  outage.window = 2;
  outage.provider = 1;  // beta, the cheaper cloud, hosts the fleet
  outage.duration = 2;
  cfg.market.outages = {outage};
  cfg.market.providers[1].faults.scripted = {{1, /*leaf_level=*/true, 0,
                                              /*mttr_windows=*/1, false}};
  MultiCloudSimulator sim(cfg);
  const std::vector<WindowMetrics> metrics = sim.run(23);
  ASSERT_EQ(metrics.size(), cfg.windows);
  const SimSummary summary = summarize(metrics);

  std::size_t evicted = 0;
  std::size_t retried = 0;
  std::size_t permanent = 0;
  std::size_t beta_evicted = 0;
  for (const WindowMetrics& row : metrics) {
    evicted += row.evicted;
    retried += row.retried;
    permanent += row.permanently_rejected;
    beta_evicted += row.providers[1].evicted;
  }
  EXPECT_GT(summary.evicted, 0u);
  EXPECT_EQ(summary.evicted, evicted);
  // The outage evicts beta's whole slice; nothing else evicts.
  EXPECT_EQ(beta_evicted, evicted);
  EXPECT_EQ(metrics[outage.window].evicted, evicted);
  // The evicted VMs come back through the broker's retry queue.
  EXPECT_GT(summary.retried, 0u);
  EXPECT_EQ(summary.retried, retried);
  EXPECT_EQ(summary.permanently_rejected, permanent);

  // The leaf fault takes beta's rack down in window 1 and repairs it
  // one window later.
  EXPECT_GT(metrics[1].providers[1].failed_servers, 0u);
  EXPECT_EQ(metrics[1].failed_servers, metrics[1].providers[1].failed_servers);
  EXPECT_GT(metrics[2].repaired_servers, 0u);
}

// A rack fault under hosted VMs: every VM beta hosted going into the
// window is displaced, and the round leaves none of them on a dead
// server, as in a single-cloud run.
TEST(MultiCloudSim, RackFaultDisplacesHostedVms) {
  MultiCloudSimConfig cfg = tiny_sim_config();
  cfg.departure_probability = 0.0;
  // Both of beta's racks go down in window 2, for one window.
  cfg.market.providers[1].faults.scripted = {
      {2, /*leaf_level=*/true, 0, /*mttr_windows=*/1, false},
      {2, /*leaf_level=*/true, 1, /*mttr_windows=*/1, false}};
  MultiCloudSimulator sim(cfg);
  const std::vector<WindowMetrics> metrics = sim.run(23);
  ASSERT_EQ(metrics.size(), cfg.windows);

  ASSERT_GT(metrics[1].providers[1].running, 0u);
  EXPECT_EQ(metrics[2].providers[1].failed_servers, 16u);
  EXPECT_GT(metrics[2].displaced_vms, 0u);
  EXPECT_EQ(metrics[2].displaced_vms, metrics[1].providers[1].running);
  for (const WindowMetrics& row : metrics) {
    EXPECT_EQ(row.vms_on_down_servers, 0u) << "window " << row.window;
    if (row.window != 2) {
      EXPECT_EQ(row.displaced_vms, 0u) << "window " << row.window;
    }
  }
}

// The brokered window loop takes its arrivals from the same rule as the
// single-cloud one: a schedule shorter than the horizon wraps, and its
// zero entry leaves the window empty.
TEST(MultiCloudSim, ArrivedColumnFollowsTheSchedule) {
  MultiCloudSimConfig cfg = tiny_sim_config();
  cfg.windows = 7;
  cfg.departure_probability = 0.0;
  cfg.arrival_schedule = {3, 0, 7};
  MultiCloudSimulator sim(cfg);
  const std::vector<WindowMetrics> metrics = sim.run(11);
  ASSERT_EQ(metrics.size(), 7u);
  for (std::size_t w = 0; w < metrics.size(); ++w) {
    EXPECT_EQ(metrics[w].arrived, cfg.arrival_schedule[w % 3])
        << "window " << w;
  }
}

// --- determinism ----------------------------------------------------

TEST(MultiCloudSim, FingerprintIdenticalAcrossRuns) {
  const MultiCloudSimConfig cfg = tiny_sim_config();
  MultiCloudSimulator a(cfg);
  MultiCloudSimulator b(cfg);
  EXPECT_EQ(deterministic_fingerprint(a.run(23)),
            deterministic_fingerprint(b.run(23)));
  MultiCloudSimulator c(cfg);
  EXPECT_NE(deterministic_fingerprint(c.run(24)),
            deterministic_fingerprint(b.run(23)));
}

TEST(MultiCloudSim, FingerprintIdenticalAcrossThreadCounts) {
  MultiCloudSimConfig cfg = tiny_sim_config();
  cfg.windows = 3;
  cfg.broker.mode = BrokerMode::kMarketAware;
  cfg.broker.backend = AlgorithmId::kNsga3Tabu;
  cfg.broker.suite.ea.nsga.population_size = 12;
  cfg.broker.suite.ea.nsga.max_evaluations = 60;
  cfg.broker.suite.ea.nsga.reference_divisions = 4;

  cfg.broker.suite.ea.nsga.threads = 1;
  MultiCloudSimulator serial(cfg);
  const std::uint64_t serial_fp =
      deterministic_fingerprint(serial.run(41));

  cfg.broker.suite.ea.nsga.threads = 4;
  MultiCloudSimulator threaded(cfg);
  EXPECT_EQ(serial_fp, deterministic_fingerprint(threaded.run(41)));
}

TEST(MultiCloudSim, FingerprintCoversPerProviderColumns) {
  MultiCloudSimulator sim(tiny_sim_config());
  const std::vector<WindowMetrics> metrics = sim.run(23);
  const std::uint64_t base = deterministic_fingerprint(metrics);
  ASSERT_GE(metrics.size(), 2u);
  ASSERT_FALSE(metrics[1].providers.empty());

  std::vector<WindowMetrics> tweaked = metrics;
  tweaked[1].providers[0].migration_cost += 1.0;
  EXPECT_NE(deterministic_fingerprint(tweaked), base);

  tweaked = metrics;
  tweaked[1].providers[0].online = !tweaked[1].providers[0].online;
  EXPECT_NE(deterministic_fingerprint(tweaked), base);

  tweaked = metrics;
  tweaked[1].redirects += 1;
  EXPECT_NE(deterministic_fingerprint(tweaked), base);

  tweaked = metrics;
  tweaked[1].cross_cloud_migration_cost += 0.5;
  EXPECT_NE(deterministic_fingerprint(tweaked), base);
}

// --- trace round-trip with provider columns -------------------------

TEST(TraceJson, ProviderColumnsRoundTrip) {
  MultiCloudSimulator sim(tiny_sim_config());
  const std::vector<WindowMetrics> metrics = sim.run(29);
  const std::vector<WindowMetrics> parsed =
      sim_trace_from_json(Json::parse(test::sim_trace_text(metrics)));
  ASSERT_EQ(parsed.size(), metrics.size());
  for (std::size_t w = 0; w < metrics.size(); ++w) {
    EXPECT_EQ(parsed[w].providers.size(), metrics[w].providers.size());
  }
  EXPECT_EQ(deterministic_fingerprint(parsed),
            deterministic_fingerprint(metrics));
}

// --- warm-start front hand-off --------------------------------------

SuiteOptions tiny_ea_suite() {
  SuiteOptions suite;
  suite.ea.nsga.population_size = 12;
  suite.ea.nsga.max_evaluations = 60;
  suite.ea.nsga.reference_divisions = 4;
  suite.ea.nsga.threads = 1;
  return suite;
}

TEST(WarmStart, EaAllocatorExportsFrontAfterArming) {
  const ScenarioGenerator generator(tiny_scenario());
  const Instance instance = generator.generate(51);

  std::unique_ptr<Allocator> ea =
      make_allocator(AlgorithmId::kNsga3Tabu, tiny_ea_suite());
  // Before arming, results carry no front.
  AllocationResult cold = ea->allocate(instance, 9);
  EXPECT_TRUE(cold.front_genes.empty());

  ASSERT_TRUE(ea->seed_next_run({}));
  AllocationResult armed = ea->allocate(instance, 9);
  ASSERT_FALSE(armed.front_genes.empty());
  for (const std::vector<std::int32_t>& genes : armed.front_genes) {
    EXPECT_EQ(genes.size(), instance.n());
  }

  // Feeding the front back is accepted and keeps exporting.
  ASSERT_TRUE(ea->seed_next_run(std::move(armed.front_genes)));
  AllocationResult warm = ea->allocate(instance, 9);
  EXPECT_FALSE(warm.front_genes.empty());
}

TEST(WarmStart, HeuristicAllocatorsDeclineTheHandOff) {
  std::unique_ptr<Allocator> ffd =
      make_allocator(AlgorithmId::kFirstFitDecreasing);
  EXPECT_FALSE(ffd->seed_next_run({}));
}

TEST(WarmStart, CloudSimulatorWarmStartRunsDeterministically) {
  SimConfig cfg;
  cfg.windows = 4;
  cfg.arrival_schedule = {6, 4};
  cfg.scenario = tiny_scenario();
  cfg.retry.max_attempts = 2;
  cfg.warm_start_front = true;

  const auto run_once = [&cfg]() {
    CloudSimulator sim(cfg, make_allocator(AlgorithmId::kNsga3Tabu,
                                           tiny_ea_suite()));
    return deterministic_fingerprint(sim.run(13));
  };
  const std::uint64_t first = run_once();
  EXPECT_EQ(first, run_once());

  // The hand-off must actually change the search trajectory.
  cfg.warm_start_front = false;
  CloudSimulator cold(cfg, make_allocator(AlgorithmId::kNsga3Tabu,
                                          tiny_ea_suite()));
  const std::uint64_t cold_fp = deterministic_fingerprint(cold.run(13));
  EXPECT_NE(first, cold_fp);
}

TEST(MultiCloudSim, WarmStartFrontRunsDeterministically) {
  MultiCloudSimConfig cfg = tiny_sim_config();
  cfg.windows = 3;
  cfg.broker.mode = BrokerMode::kMarketAware;
  cfg.broker.backend = AlgorithmId::kNsga3Tabu;
  cfg.broker.suite = tiny_ea_suite();
  cfg.warm_start_front = true;

  MultiCloudSimulator a(cfg);
  MultiCloudSimulator b(cfg);
  EXPECT_EQ(deterministic_fingerprint(a.run(37)),
            deterministic_fingerprint(b.run(37)));
}

}  // namespace
}  // namespace iaas
