// Reconfiguration plans, the fleet bookkeeping both window loops share,
// and the cyclic time-window simulator, including the fault-injection /
// graceful-degradation battery: determinism across thread counts,
// rack-outage recovery, deadline degradation, and the retry-queue
// conservation laws.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "algo/heuristics.h"
#include "algo/nsga_allocators.h"
#include "algo/round_robin.h"
#include "sim/reconfiguration_plan.h"
#include "sim/simulator.h"
#include "tests/test_util.h"

namespace iaas {
namespace {

using test::make_instance;

TEST(ReconfigurationPlan, DiffClassifiesActions) {
  Instance inst = make_instance(
      1, 3, {10.0, 10.0, 10.0},
      {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  Placement from(4);
  from.assign(0, 0);  // stays
  from.assign(1, 1);  // migrates to 2
  from.assign(2, 2);  // stops
  // VM 3 was not running      -> boots
  Placement to(4);
  to.assign(0, 0);
  to.assign(1, 2);
  to.assign(3, 1);

  const ReconfigurationPlan plan = make_plan(inst, from, to);
  EXPECT_EQ(plan.actions.size(), 3u);
  EXPECT_EQ(plan.boots(), 1u);
  EXPECT_EQ(plan.migrations(), 1u);
  EXPECT_EQ(std::count_if(plan.actions.begin(), plan.actions.end(),
                          [](const ReconfigurationAction& a) {
                            return a.kind == ActionKind::kStop;
                          }),
            1);
  // Helper migration cost is 2.0/VM; only VM 1 migrates.
  EXPECT_DOUBLE_EQ(plan.migration_cost(), 2.0);
}

TEST(ReconfigurationPlan, IdenticalPlacementsEmptyPlan) {
  Instance inst =
      make_instance(1, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}});
  Placement p(1);
  p.assign(0, 1);
  const ReconfigurationPlan plan = make_plan(inst, p, p);
  EXPECT_TRUE(plan.actions.empty());
  EXPECT_DOUBLE_EQ(plan.migration_cost(), 0.0);
}

TEST(PoissonSample, SmallMeanMatchesMoments) {
  Rng rng(7);
  const double mean = 20.0;
  const std::size_t n = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(poisson_sample(mean, rng));
    sum += x;
    sum_sq += x * x;
  }
  const double sample_mean = sum / static_cast<double>(n);
  const double sample_var =
      sum_sq / static_cast<double>(n) - sample_mean * sample_mean;
  // Poisson: mean == variance == lambda.
  EXPECT_NEAR(sample_mean, mean, 0.15);
  EXPECT_NEAR(sample_var, mean, 1.5);
}

TEST(PoissonSample, LargeMeanNoUnderflow) {
  // exp(-1500) underflows to 0; the raw Knuth loop would then only stop
  // when its running product underflowed too, returning garbage (biased
  // low by orders of magnitude).  The chunked sampler must stay on the
  // Poisson moments.
  Rng rng(11);
  const double mean = 1500.0;
  const std::size_t n = 2000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(poisson_sample(mean, rng));
    sum += x;
    sum_sq += x * x;
  }
  const double sample_mean = sum / static_cast<double>(n);
  const double sample_var =
      sum_sq / static_cast<double>(n) - sample_mean * sample_mean;
  EXPECT_NEAR(sample_mean, mean, mean * 0.03);
  EXPECT_NEAR(sample_var, mean, mean * 0.15);
}

TEST(PoissonSample, EdgeCasesAndDeterminism) {
  Rng rng(3);
  EXPECT_EQ(poisson_sample(0.0, rng), 0u);
  EXPECT_EQ(poisson_sample(-5.0, rng), 0u);
  Rng a(42);
  Rng b(42);
  for (double mean : {0.5, 30.0, 600.0, 1200.0}) {
    EXPECT_EQ(poisson_sample(mean, a), poisson_sample(mean, b));
  }
}

// compact_requests: VM removal with constraint-group remapping (runs on
// every departure/rejection window).
TEST(CompactRequests, RemapsSurvivingGroupIndices) {
  RequestSet requests;
  for (int i = 0; i < 5; ++i) {
    requests.vms.push_back(test::make_vm({1.0, 1.0, 1.0}));
  }
  requests.constraints = {{RelationKind::kSameServer, {1, 3, 4}},
                          {RelationKind::kDifferentServers, {0, 2}}};
  Placement placement(5);
  for (std::uint32_t k = 0; k < 5; ++k) {
    placement.assign(k, static_cast<std::int32_t>(k));
  }
  // Drop VMs 0 and 3: survivors 1,2,4 become 0,1,2.
  compact_requests(requests, placement, {0, 1, 1, 0, 1});

  ASSERT_EQ(requests.vms.size(), 3u);
  ASSERT_EQ(requests.constraints.size(), 1u);
  // {1,3,4} loses member 3 and remaps to the new indices of 1 and 4.
  EXPECT_EQ(requests.constraints[0].kind, RelationKind::kSameServer);
  EXPECT_EQ(requests.constraints[0].vms, (std::vector<std::uint32_t>{0, 2}));
  // Surviving genes keep their server assignments, in survivor order.
  ASSERT_EQ(placement.vm_count(), 3u);
  EXPECT_EQ(placement.server_of(0), 1);
  EXPECT_EQ(placement.server_of(1), 2);
  EXPECT_EQ(placement.server_of(2), 4);
}

TEST(CompactRequests, GroupsBelowTwoMembersAreDropped) {
  RequestSet requests;
  for (int i = 0; i < 4; ++i) {
    requests.vms.push_back(test::make_vm({1.0, 1.0, 1.0}));
  }
  requests.constraints = {{RelationKind::kDifferentServers, {0, 1}},
                          {RelationKind::kSameDatacenter, {2, 3}}};
  Placement placement(4);
  for (std::uint32_t k = 0; k < 4; ++k) {
    placement.assign(k, 0);
  }
  // Drop VM 1: the {0,1} pair shrinks to one member and must vanish;
  // {2,3} survives fully remapped.
  compact_requests(requests, placement, {1, 0, 1, 1});
  ASSERT_EQ(requests.constraints.size(), 1u);
  EXPECT_EQ(requests.constraints[0].kind, RelationKind::kSameDatacenter);
  EXPECT_EQ(requests.constraints[0].vms, (std::vector<std::uint32_t>{1, 2}));
}

TEST(CompactRequests, DropEverythingLeavesEmptySet) {
  RequestSet requests;
  requests.vms.push_back(test::make_vm({1.0, 1.0, 1.0}));
  requests.constraints = {};
  Placement placement(1);
  placement.assign(0, 0);
  compact_requests(requests, placement, {0});
  EXPECT_TRUE(requests.vms.empty());
  EXPECT_EQ(placement.vm_count(), 0u);
}

SimConfig small_sim() {
  SimConfig cfg;
  cfg.windows = 6;
  cfg.arrivals_per_window_mean = 8.0;
  cfg.departure_probability = 0.15;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  return cfg;
}

TEST(CloudSimulator, RunsFullHorizon) {
  CloudSimulator sim(small_sim(), std::make_unique<RoundRobinAllocator>());
  const auto metrics = sim.run(1);
  ASSERT_EQ(metrics.size(), 6u);
  for (std::size_t w = 0; w < metrics.size(); ++w) {
    EXPECT_EQ(metrics[w].window, w);
    EXPECT_GE(metrics[w].solve_seconds, 0.0);
  }
}

TEST(CloudSimulator, DeterministicPerSeed) {
  CloudSimulator a(small_sim(), std::make_unique<RoundRobinAllocator>());
  CloudSimulator b(small_sim(), std::make_unique<RoundRobinAllocator>());
  const auto ma = a.run(42);
  const auto mb = b.run(42);
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t w = 0; w < ma.size(); ++w) {
    EXPECT_EQ(ma[w].arrived, mb[w].arrived);
    EXPECT_EQ(ma[w].departed, mb[w].departed);
    EXPECT_EQ(ma[w].running, mb[w].running);
    EXPECT_EQ(ma[w].migrations, mb[w].migrations);
    EXPECT_DOUBLE_EQ(ma[w].objectives.aggregate(),
                     mb[w].objectives.aggregate());
  }
}

TEST(CloudSimulator, RunningPopulationBalances) {
  CloudSimulator sim(small_sim(), std::make_unique<RoundRobinAllocator>());
  const auto metrics = sim.run(7);
  std::size_t running = 0;
  for (const WindowMetrics& w : metrics) {
    // After the window: previous running - departed + arrived - rejected.
    const std::size_t expected =
        running - w.departed + w.arrived - w.rejected;
    EXPECT_EQ(w.running, expected) << "window " << w.window;
    running = w.running;
  }
}

TEST(CloudSimulator, FirstWindowBootsEverythingPlaced) {
  SimConfig cfg = small_sim();
  cfg.departure_probability = 0.0;
  CloudSimulator sim(cfg, std::make_unique<RoundRobinAllocator>());
  const auto metrics = sim.run(3);
  const WindowMetrics& w0 = metrics.front();
  EXPECT_EQ(w0.boots, w0.arrived - w0.rejected);
  EXPECT_EQ(w0.migrations, 0u);
}

TEST(CloudSimulator, ZeroArrivalsProduceEmptyWindows) {
  SimConfig cfg = small_sim();
  cfg.arrivals_per_window_mean = 0.0;
  CloudSimulator sim(cfg, std::make_unique<RoundRobinAllocator>());
  const auto metrics = sim.run(5);
  for (const WindowMetrics& w : metrics) {
    EXPECT_EQ(w.arrived, 0u);
    EXPECT_EQ(w.running, 0u);
    EXPECT_DOUBLE_EQ(w.objectives.aggregate(), 0.0);
  }
}

TEST(CloudSimulator, DrivesTheHybridAllocatorEndToEnd) {
  SimConfig cfg = small_sim();
  cfg.windows = 3;
  cfg.arrivals_per_window_mean = 6.0;
  EaAllocatorOptions options;
  options.nsga.population_size = 16;
  options.nsga.max_evaluations = 320;
  options.nsga.reference_divisions = 4;
  CloudSimulator sim(cfg, std::make_unique<Nsga3TabuAllocator>(options));
  const auto metrics = sim.run(23);
  ASSERT_EQ(metrics.size(), 3u);
  std::size_t running = 0;
  for (const WindowMetrics& w : metrics) {
    const std::size_t expected =
        running - w.departed + w.arrived - w.rejected;
    EXPECT_EQ(w.running, expected);
    running = w.running;
  }
}

TEST(CloudSimulator, FailureInjectionDisplacesVms) {
  SimConfig cfg = small_sim();
  cfg.windows = 12;
  cfg.faults.server_failure_probability = 0.15;
  cfg.departure_probability = 0.0;
  CloudSimulator sim(cfg, std::make_unique<RoundRobinAllocator>());
  const auto metrics = sim.run(13);
  std::size_t total_failures = 0;
  std::size_t total_displaced = 0;
  for (const WindowMetrics& w : metrics) {
    total_failures += w.failed_servers;
    total_displaced += w.displaced_vms;
  }
  EXPECT_GT(total_failures, 0u);
  EXPECT_GT(total_displaced, 0u);
}

TEST(CloudSimulator, NoFailuresWhenProbabilityZero) {
  SimConfig cfg = small_sim();
  cfg.faults.server_failure_probability = 0.0;
  CloudSimulator sim(cfg, std::make_unique<RoundRobinAllocator>());
  for (const WindowMetrics& w : sim.run(17)) {
    EXPECT_EQ(w.failed_servers, 0u);
    EXPECT_EQ(w.displaced_vms, 0u);
  }
}

TEST(CloudSimulator, FailuresForceMigrationsOffDeadServers) {
  // With certain failure of many servers, surviving VMs must migrate.
  SimConfig cfg = small_sim();
  cfg.windows = 4;
  cfg.faults.server_failure_probability = 0.3;
  cfg.departure_probability = 0.0;
  cfg.arrivals_per_window_mean = 10.0;
  CloudSimulator sim(cfg, std::make_unique<RoundRobinAllocator>());
  const auto metrics = sim.run(19);
  std::size_t migrations = 0;
  for (const WindowMetrics& w : metrics) {
    migrations += w.migrations;
  }
  EXPECT_GT(migrations, 0u);
}

TEST(CloudSimulator, DeparturesShrinkPlatform) {
  SimConfig cfg = small_sim();
  cfg.windows = 30;
  cfg.departure_probability = 0.5;
  cfg.arrivals_per_window_mean = 2.0;
  CloudSimulator sim(cfg, std::make_unique<RoundRobinAllocator>());
  const auto metrics = sim.run(11);
  // With heavy churn the platform stays small — sanity bound.
  for (const WindowMetrics& w : metrics) {
    EXPECT_LT(w.running, 60u);
  }
  std::size_t total_departed = 0;
  for (const WindowMetrics& w : metrics) {
    total_departed += w.departed;
  }
  EXPECT_GT(total_departed, 0u);
}

// --- arrival schedule wrap-around (the single shared arrival rule) ---

TEST(WindowArrivals, ScheduleWrapAndPoissonFallbackTable) {
  struct Case {
    std::vector<std::size_t> schedule;
    std::size_t window;
    std::size_t expected;  // ignored for the Poisson rows
    bool poisson;
  };
  const Case cases[] = {
      {{5, 7, 9}, 0, 5, false},
      {{5, 7, 9}, 2, 9, false},
      {{5, 7, 9}, 3, 5, false},    // wraps: window % schedule length
      {{5, 7, 9}, 7, 7, false},    // 7 % 3 == 1
      {{5, 7, 9}, 3002, 9, false}, // far beyond the schedule
      {{4}, 9999, 4, false},       // single-entry schedule is constant
      {{}, 0, 0, true},            // empty schedule: Poisson fallback
      {{}, 17, 0, true},
  };
  for (const Case& c : cases) {
    Rng rng(21);
    const std::size_t got = window_arrivals(c.schedule, 6.0, c.window, rng);
    if (c.poisson) {
      // The fallback must consume the rng and match a fresh Poisson draw.
      Rng twin(21);
      EXPECT_EQ(got, poisson_sample(6.0, twin)) << "window " << c.window;
    } else {
      EXPECT_EQ(got, c.expected) << "window " << c.window;
    }
  }
  // Zero-mean Poisson boundary: no draw, no arrivals, for any window.
  Rng rng(3);
  EXPECT_EQ(window_arrivals({}, 0.0, 0, rng), 0u);
  EXPECT_EQ(window_arrivals({}, 0.0, 1000, rng), 0u);
}

// The window loop takes its arrivals from that rule: a schedule shorter
// than the horizon wraps, and its zero entry leaves the window empty.
TEST(CloudSimulator, ArrivedColumnFollowsTheSchedule) {
  SimConfig cfg = small_sim();
  cfg.windows = 7;
  cfg.departure_probability = 0.0;
  cfg.arrival_schedule = {3, 0, 7};
  CloudSimulator sim(cfg, std::make_unique<RoundRobinAllocator>());
  const auto metrics = sim.run(11);
  ASSERT_EQ(metrics.size(), 7u);
  for (std::size_t w = 0; w < metrics.size(); ++w) {
    EXPECT_EQ(metrics[w].arrived, cfg.arrival_schedule[w % 3])
        << "window " << w;
  }
}

// --- compact_requests property test (randomised) ---

TEST(CompactRequests, RandomisedInvariantsHold) {
  Rng rng(2024);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t n = 1 + rng.uniform_index(12);
    RequestSet requests;
    Placement placement(n);
    for (std::size_t k = 0; k < n; ++k) {
      VmRequest vm = test::make_vm({1.0, 1.0, 1.0});
      vm.migration_cost = static_cast<double>(k);  // identity tag
      requests.vms.push_back(vm);
      if (rng.bernoulli(0.7)) {
        placement.assign(k, static_cast<std::int32_t>(rng.uniform_index(4)));
      }
    }
    // Random overlapping groups.
    const std::size_t groups = rng.uniform_index(4);
    for (std::size_t c = 0; c < groups; ++c) {
      std::vector<std::uint32_t> members;
      for (std::uint32_t k = 0; k < n; ++k) {
        if (rng.bernoulli(0.4)) {
          members.push_back(k);
        }
      }
      if (members.size() >= 2) {
        requests.constraints.push_back(
            {RelationKind::kSameDatacenter, std::move(members)});
      }
    }
    std::vector<char> keep(n, 1);
    for (std::size_t k = 0; k < n; ++k) {
      keep[k] = rng.bernoulli(0.6) ? 1 : 0;
    }

    // Expected survivor identities, in order.
    std::vector<double> expected_tags;
    std::vector<std::int32_t> expected_genes;
    for (std::size_t k = 0; k < n; ++k) {
      if (keep[k] != 0) {
        expected_tags.push_back(requests.vms[k].migration_cost);
        expected_genes.push_back(placement.server_of(k));
      }
    }
    compact_requests(requests, placement, keep);

    // Survivors keep identity, order, and server assignment.
    ASSERT_EQ(requests.vms.size(), expected_tags.size());
    ASSERT_EQ(placement.vm_count(), expected_tags.size());
    for (std::size_t k = 0; k < requests.vms.size(); ++k) {
      EXPECT_DOUBLE_EQ(requests.vms[k].migration_cost, expected_tags[k]);
      EXPECT_EQ(placement.server_of(k), expected_genes[k]);
    }
    // No dangling group members: every index in range, no group < 2, and
    // no member referring to a dropped VM (indices are remapped, so any
    // index >= survivor count would be a resurrection).
    for (const PlacementConstraint& c : requests.constraints) {
      EXPECT_GE(c.vms.size(), 2u);
      for (std::uint32_t m : c.vms) {
        EXPECT_LT(m, requests.vms.size());
      }
    }
  }
}

// --- Fleet bookkeeping property test (randomised) ---

// What one VM carries through a Fleet, keyed by its identity tag.
struct FleetEntry {
  double tag = 0.0;
  std::int32_t gene = Placement::kRejected;
  std::size_t attempts = 0;
  std::size_t redirects = 0;
  std::vector<std::int32_t> front;
};

// The fleet's VMs as entries, read through the index-parallel vectors
// (which must all have the fleet's length).
std::vector<FleetEntry> fleet_entries(const Fleet& fleet) {
  EXPECT_EQ(fleet.placement.vm_count(), fleet.size());
  EXPECT_EQ(fleet.attempts.size(), fleet.size());
  EXPECT_EQ(fleet.redirects.size(), fleet.size());
  std::vector<FleetEntry> entries;
  for (std::size_t k = 0; k < fleet.size(); ++k) {
    FleetEntry e{fleet.live.vms[k].migration_cost,
                 fleet.placement.genes().at(k), fleet.attempts.at(k),
                 fleet.redirects.at(k), {}};
    for (const std::vector<std::int32_t>& genes : fleet.front) {
      EXPECT_EQ(genes.size(), fleet.size());
      e.front.push_back(genes.at(k));
    }
    entries.push_back(e);
  }
  return entries;
}

// Constraints as sets of member tags, in order.
std::vector<std::set<double>> fleet_groups(const Fleet& fleet) {
  std::vector<std::set<double>> groups;
  for (const PlacementConstraint& c : fleet.live.constraints) {
    EXPECT_GE(c.vms.size(), 2u);
    std::set<double>& tags = groups.emplace_back();
    for (const std::uint32_t k : c.vms) {
      EXPECT_LT(k, fleet.size());
      if (k < fleet.size()) {
        tags.insert(fleet.live.vms[k].migration_cost);
      }
    }
  }
  return groups;
}

// Random appends (single VMs and grouped units), departures and
// compactions keep every per-VM vector attached to its VM, and every
// constraint valid and on the VMs it was declared over.
TEST(Fleet, RandomisedAppendDepartCompactKeepVectorsIndexParallel) {
  Rng rng(0xf1ee7);
  for (int trial = 0; trial < 100; ++trial) {
    Fleet fleet;
    fleet.front.resize(rng.uniform_index(3));
    std::vector<FleetEntry> model;            // expected, in fleet order
    std::vector<std::set<double>> model_groups;
    double next_tag = 0.0;
    const auto fresh_vm = [&next_tag]() {
      VmRequest vm = test::make_vm({1.0, 1.0, 1.0});
      vm.migration_cost = next_tag++;
      return vm;
    };
    // Survivors of a removal: drop dead entries and shrink the groups.
    const auto keep_model = [&](const std::vector<char>& keep) {
      std::set<double> dead;
      std::vector<FleetEntry> kept;
      for (std::size_t k = 0; k < model.size(); ++k) {
        if (keep[k] != 0) {
          kept.push_back(model[k]);
        } else {
          dead.insert(model[k].tag);
        }
      }
      model = std::move(kept);
      std::vector<std::set<double>> groups;
      for (std::set<double> g : model_groups) {
        std::erase_if(g, [&dead](double t) { return dead.count(t) != 0; });
        if (g.size() >= 2) {
          groups.push_back(std::move(g));
        }
      }
      model_groups = std::move(groups);
    };

    for (int op = 0; op < 16; ++op) {
      switch (rng.uniform_index(4)) {
        case 0: {  // one retried VM
          const std::size_t attempts = rng.uniform_index(4);
          const std::size_t redirects = rng.uniform_index(3);
          VmRequest vm = fresh_vm();
          model.push_back({vm.migration_cost, Placement::kRejected, attempts,
                           redirects,
                           std::vector<std::int32_t>(fleet.front.size(),
                                                     Placement::kRejected)});
          fleet.append(std::move(vm), attempts, redirects);
          break;
        }
        case 1: {  // a unit with unit-local groups
          RequestSet unit;
          const std::size_t n = 1 + rng.uniform_index(5);
          const std::size_t redirects = rng.uniform_index(3);
          for (std::size_t k = 0; k < n; ++k) {
            unit.vms.push_back(fresh_vm());
            model.push_back({unit.vms.back().migration_cost,
                             Placement::kRejected, 0, redirects,
                             std::vector<std::int32_t>(fleet.front.size(),
                                                       Placement::kRejected)});
          }
          for (std::size_t g = rng.uniform_index(3); g > 0; --g) {
            std::vector<std::uint32_t> members;
            std::set<double> tags;
            for (std::uint32_t k = 0; k < n; ++k) {
              if (rng.bernoulli(0.5)) {
                members.push_back(k);
                tags.insert(unit.vms[k].migration_cost);
              }
            }
            if (members.size() >= 2) {
              unit.constraints.push_back(
                  {RelationKind::kDifferentServers, std::move(members)});
              model_groups.push_back(std::move(tags));
            }
          }
          fleet.append(std::move(unit), 0, redirects);
          break;
        }
        case 2: {  // departures: which VMs leave is the rng's call
          const std::vector<FleetEntry> before = model;
          const std::size_t departed = fleet.depart(0.3, rng);
          std::set<double> alive;
          for (const VmRequest& vm : fleet.live.vms) {
            alive.insert(vm.migration_cost);
          }
          std::vector<char> keep(before.size(), 0);
          for (std::size_t k = 0; k < before.size(); ++k) {
            keep[k] = alive.count(before[k].tag) != 0 ? 1 : 0;
          }
          keep_model(keep);
          EXPECT_EQ(model.size() + departed, before.size());
          break;
        }
        default: {  // a settle-style compaction
          std::vector<char> keep(fleet.size());
          for (char& flag : keep) {
            flag = rng.bernoulli(0.7) ? 1 : 0;
          }
          fleet.compact(keep);
          keep_model(keep);
          break;
        }
      }
      // Place some VMs and rewrite some front genes, so every vector
      // carries VM-specific values through the next operation.
      for (std::size_t k = 0; k < fleet.size(); ++k) {
        if (rng.bernoulli(0.5)) {
          const auto server = static_cast<std::int32_t>(rng.uniform_index(8));
          fleet.placement.assign(k, server);
          model[k].gene = server;
        }
        for (std::size_t f = 0; f < fleet.front.size(); ++f) {
          const auto gene = static_cast<std::int32_t>(rng.uniform_index(8));
          fleet.front[f].at(k) = gene;
          model[k].front[f] = gene;
        }
      }

      const std::vector<FleetEntry> got = fleet_entries(fleet);
      ASSERT_EQ(got.size(), model.size());
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].tag, model[k].tag);
        EXPECT_EQ(got[k].gene, model[k].gene);
        EXPECT_EQ(got[k].attempts, model[k].attempts);
        EXPECT_EQ(got[k].redirects, model[k].redirects);
        EXPECT_EQ(got[k].front, model[k].front);
      }
      EXPECT_EQ(fleet_groups(fleet), model_groups);
      EXPECT_TRUE(fleet.live.valid(3));
    }
  }
}

// --- determinism battery ---

std::uint64_t battery_fingerprint(std::size_t threads, std::uint64_t seed,
                                  bool warm_front = false) {
  SimConfig cfg;
  cfg.warm_start_front = warm_front;
  cfg.windows = 4;
  cfg.arrivals_per_window_mean = 6.0;
  cfg.departure_probability = 0.10;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  cfg.faults.server_failure_probability = 0.08;
  cfg.faults.leaf_failure_probability = 0.10;
  cfg.faults.mttr_min_windows = 1;
  cfg.faults.mttr_max_windows = 3;
  cfg.faults.decommission_probability = 0.10;
  cfg.retry.max_attempts = 3;
  EaAllocatorOptions options;
  options.nsga.population_size = 16;
  options.nsga.max_evaluations = 320;
  options.nsga.reference_divisions = 4;
  options.nsga.collect_trace = true;
  options.nsga.threads = threads;
  CloudSimulator sim(cfg, std::make_unique<Nsga3TabuAllocator>(options));
  return deterministic_fingerprint(sim.run(seed));
}

TEST(SimDeterminism, FingerprintBitIdenticalAcrossThreadCounts) {
  // Failures, retries and the EA hybrid all enabled: the full window
  // pipeline must replay bit-identically at any worker count.
  const std::uint64_t serial = battery_fingerprint(1, 5);
  EXPECT_EQ(battery_fingerprint(2, 5), serial);
  EXPECT_EQ(battery_fingerprint(4, 5), serial);
  // Re-running the serial config reproduces it exactly; a different seed
  // must diverge (the digest actually sees the run).
  EXPECT_EQ(battery_fingerprint(1, 5), serial);
  EXPECT_NE(battery_fingerprint(1, 6), serial);
}

TEST(SimDeterminism, WarmStartFrontFingerprintBitIdenticalAcrossThreads) {
  // Carrying the previous window's Pareto front into the next EA run
  // adds a cross-window feedback path; it must stay bit-deterministic
  // at any worker count, and must actually change the trajectory
  // relative to cold starts (the carried front is not a no-op).
  const std::uint64_t warm = battery_fingerprint(1, 5, /*warm_front=*/true);
  EXPECT_EQ(battery_fingerprint(2, 5, true), warm);
  EXPECT_EQ(battery_fingerprint(4, 5, true), warm);
  EXPECT_NE(battery_fingerprint(1, 6, true), warm);
  EXPECT_NE(battery_fingerprint(1, 5, false), warm);
}

TEST(SimDeterminism, FingerprintSensitiveToFaultHistory) {
  SimConfig cfg;
  cfg.windows = 5;
  cfg.arrivals_per_window_mean = 5.0;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  CloudSimulator plain(cfg, std::make_unique<RoundRobinAllocator>());
  cfg.faults.scripted = {{2, true, 0, 2, false}};
  CloudSimulator faulted(cfg, std::make_unique<RoundRobinAllocator>());
  EXPECT_NE(deterministic_fingerprint(plain.run(9)),
            deterministic_fingerprint(faulted.run(9)));
}

// --- rack outage: eviction, re-placement, queue drain ---

TEST(CloudSimulator, RackOutageEvictsAndRetryQueueDrains) {
  SimConfig cfg;
  cfg.windows = 10;
  cfg.departure_probability = 0.0;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  // Load the platform hard for three windows, then stop arrivals so the
  // drain is observable; rack 0 (half the fleet) dies at window 2 for
  // MTTR=3 windows (down 2-4, repaired at 5).
  cfg.arrival_schedule = {35, 35, 35, 0, 0, 0, 0, 0, 0, 0};
  cfg.faults.scripted = {{/*window=*/2, /*leaf_level=*/true, /*index=*/0,
                          /*mttr_windows=*/3, /*decommission=*/false}};
  cfg.retry.max_attempts = 6;
  cfg.retry.backoff_base_windows = 1;
  CloudSimulator sim(cfg, std::make_unique<RoundRobinAllocator>());
  const auto metrics = sim.run(31);
  ASSERT_EQ(metrics.size(), 10u);

  const WindowMetrics& outage = metrics[2];
  EXPECT_EQ(outage.failed_servers, 8u);
  EXPECT_GT(outage.displaced_vms, 0u);   // VMs were hosted on the rack
  EXPECT_GT(outage.evicted, 0u);         // half-capacity cannot hold all
  // Every hosted VM left the dead rack the same window it failed.
  for (const WindowMetrics& w : metrics) {
    EXPECT_EQ(w.vms_on_down_servers, 0u) << "window " << w.window;
  }
  // The rack returns as one at window 5.
  EXPECT_EQ(metrics[5].repaired_servers, 8u);
  EXPECT_EQ(metrics[5].failed_servers, 0u);
  // Evicted VMs re-enter and the queue drains within MTTR + 2 windows of
  // the outage (by window 2 + 3 + 2 = 7).
  std::size_t total_retried = 0;
  for (const WindowMetrics& w : metrics) {
    total_retried += w.retried;
  }
  EXPECT_GT(total_retried, 0u);
  for (std::size_t w = 7; w < metrics.size(); ++w) {
    EXPECT_EQ(metrics[w].retry_queue_depth, 0u) << "window " << w;
  }
  const SimSummary summary = summarize(metrics);
  EXPECT_GT(summary.fault_events, 0u);
  EXPECT_GE(summary.evicted, outage.evicted);
}

// --- graceful degradation: deadline budget and fallback chain ---

TEST(CloudSimulator, TinyDeadlineDegradesToBestEffort) {
  SimConfig cfg;
  cfg.windows = 2;
  cfg.arrivals_per_window_mean = 5.0;
  cfg.departure_probability = 0.0;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  // Any real solve exceeds 1 ns, so the EA always truncates at its first
  // generation boundary — deterministically "best front so far".
  cfg.allocator_deadline_seconds = 1e-9;
  EaAllocatorOptions options;
  options.nsga.population_size = 16;
  options.nsga.max_evaluations = 320;
  options.nsga.reference_divisions = 4;
  CloudSimulator sim(cfg, std::make_unique<Nsga3Allocator>(options));
  const auto metrics = sim.run(41);
  const SimSummary summary = summarize(metrics);
  EXPECT_GT(summary.degraded_windows, 0u);
  for (const WindowMetrics& w : metrics) {
    if (w.arrived > 0 || w.running > 0) {
      EXPECT_EQ(w.degrade, DegradeLevel::kBestEffort) << "window "
                                                      << w.window;
      EXPECT_TRUE(w.fallback_algorithm.empty());
    }
  }
}

TEST(CloudSimulator, HardDeadlineOverrunServedByFallback) {
  SimConfig cfg;
  cfg.windows = 3;
  cfg.arrivals_per_window_mean = 5.0;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  // Hard ceiling of 1 ns: every primary call overruns it, so the greedy
  // fallback serves every window — a forced overrun must not lose the
  // window, it must degrade it.
  cfg.allocator_deadline_seconds = 1e-9;
  cfg.deadline_hard_factor = 1.0;
  CloudSimulator sim(cfg, std::make_unique<RoundRobinAllocator>());
  const auto metrics = sim.run(43);
  std::size_t degraded = 0;
  for (const WindowMetrics& w : metrics) {
    if (w.arrived == 0 && w.running == 0) {
      continue;
    }
    EXPECT_EQ(w.degrade, DegradeLevel::kFallback);
    EXPECT_EQ(w.fallback_algorithm, "FirstFitDecreasing");
    ++degraded;
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_EQ(summarize(metrics).degraded_windows, degraded);
}

class ThrowingAllocator : public Allocator {
 public:
  [[nodiscard]] std::string name() const override { return "Throwing"; }
  AllocationResult allocate(const Instance&, std::uint64_t) override {
    throw std::runtime_error("allocator blew up");
  }
};

TEST(CloudSimulator, ThrowingAllocatorFallsBackAndBalances) {
  SimConfig cfg;
  cfg.windows = 4;
  cfg.arrivals_per_window_mean = 6.0;
  cfg.departure_probability = 0.10;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  CloudSimulator sim(cfg, std::make_unique<ThrowingAllocator>());
  const auto metrics = sim.run(47);
  std::size_t running = 0;
  for (const WindowMetrics& w : metrics) {
    if (w.arrived > 0 || running > 0) {
      EXPECT_EQ(w.degrade, DegradeLevel::kFallback);
      EXPECT_EQ(w.fallback_algorithm, "FirstFitDecreasing");
    }
    const std::size_t expected =
        running - w.departed + w.arrived + w.retried - w.rejected;
    EXPECT_EQ(w.running, expected) << "window " << w.window;
    running = w.running;
  }
}

TEST(CloudSimulator, CustomFallbackAllocatorIsUsed) {
  SimConfig cfg;
  cfg.windows = 2;
  cfg.arrivals_per_window_mean = 4.0;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  CloudSimulator sim(cfg, std::make_unique<ThrowingAllocator>(),
                     std::make_unique<BestFitAllocator>());
  for (const WindowMetrics& w : sim.run(53)) {
    if (w.arrived > 0 || w.running > 0) {
      EXPECT_EQ(w.fallback_algorithm, "BestFit");
    }
  }
}

// --- retry queue conservation laws under sustained overload ---

TEST(CloudSimulator, RetryConservationUnderOverload) {
  SimConfig cfg;
  cfg.windows = 12;
  cfg.arrivals_per_window_mean = 20.0;  // deliberately over capacity
  cfg.departure_probability = 0.10;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  cfg.retry.max_attempts = 3;
  cfg.retry.backoff_base_windows = 1;
  cfg.retry.backoff_cap_windows = 4;
  CloudSimulator sim(cfg, std::make_unique<RoundRobinAllocator>());
  const auto metrics = sim.run(61);

  std::size_t running = 0;
  std::size_t depth = 0;
  std::size_t offered_total = 0;
  std::size_t retried_total = 0;
  for (const WindowMetrics& w : metrics) {
    // Population balance now includes re-entries.
    const std::size_t expected_running =
        running - w.departed + w.arrived + w.retried - w.rejected;
    EXPECT_EQ(w.running, expected_running) << "window " << w.window;
    running = w.running;
    // Queue balance: what leaves is retried, what enters is this
    // window's non-permanent rejections.
    ASSERT_GE(w.rejected, w.permanently_rejected);
    const std::size_t offered = w.rejected - w.permanently_rejected;
    EXPECT_EQ(w.retry_queue_depth, depth - w.retried + offered)
        << "window " << w.window;
    depth = w.retry_queue_depth;
    offered_total += offered;
    retried_total += w.retried;
    // A VM re-enters only after it was queued: no resurrection from
    // nothing (cumulative retried never exceeds cumulative offers).
    EXPECT_LE(retried_total, offered_total);
  }
  // End-of-horizon conservation: every queued VM either re-entered or is
  // still waiting.
  EXPECT_EQ(offered_total, retried_total + depth);
  EXPECT_GT(retried_total, 0u);
  const SimSummary summary = summarize(metrics);
  EXPECT_EQ(summary.retried, retried_total);
  EXPECT_GT(summary.permanently_rejected, 0u);
}

// --- admission queue ---

TEST(CloudSimulator, AdmissionQueueDefersAndConservesArrivals) {
  SimConfig cfg;
  cfg.windows = 10;
  cfg.departure_probability = 0.15;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  cfg.arrival_schedule = {14, 2};  // bursts against a flat budget
  cfg.max_admissions_per_window = 6;
  CloudSimulator sim(cfg, std::make_unique<RoundRobinAllocator>());
  const auto metrics = sim.run(23);

  std::size_t running = 0;
  std::size_t arrived_total = 0;
  std::size_t admitted_total = 0;
  std::size_t deferred_total = 0;
  for (const WindowMetrics& w : metrics) {
    // In admission mode the instance only ever sees admitted VMs: the
    // population balance replaces `arrived` with `admitted`.
    EXPECT_EQ(w.running,
              running - w.departed + w.admitted + w.retried - w.rejected)
        << "window " << w.window;
    running = w.running;
    EXPECT_EQ(w.admission_dropped, 0u);  // no cap -> defer, never shed
    arrived_total += w.arrived;
    admitted_total += w.admitted;
    deferred_total += w.admission_deferred;
  }
  // Burst windows overflow the budget; every overflow VM waits rather
  // than vanishing: arrivals = admissions + final backlog.
  EXPECT_GT(deferred_total, 0u);
  EXPECT_EQ(arrived_total,
            admitted_total + metrics.back().admission_queue_depth);
  const SimSummary summary = summarize(metrics);
  EXPECT_EQ(summary.admission_deferred, deferred_total);
  EXPECT_EQ(summary.admission_dropped, 0u);
}

TEST(CloudSimulator, AdmissionQueueCapShedsWholeUnits) {
  SimConfig cfg;
  cfg.windows = 8;
  cfg.departure_probability = 0.0;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  cfg.arrival_schedule = {20};
  cfg.max_admissions_per_window = 4;
  cfg.admission_queue_limit = 10;
  CloudSimulator sim(cfg, std::make_unique<RoundRobinAllocator>());
  const auto metrics = sim.run(29);

  std::size_t arrived_total = 0;
  std::size_t admitted_total = 0;
  std::size_t dropped_total = 0;
  for (const WindowMetrics& w : metrics) {
    EXPECT_LE(w.admission_queue_depth, cfg.admission_queue_limit)
        << "window " << w.window;
    arrived_total += w.arrived;
    admitted_total += w.admitted;
    dropped_total += w.admission_dropped;
  }
  EXPECT_GT(dropped_total, 0u);  // 20/window against 4 admitted must shed
  EXPECT_EQ(arrived_total, admitted_total + dropped_total +
                               metrics.back().admission_queue_depth);
  EXPECT_EQ(summarize(metrics).admission_dropped, dropped_total);
}

TEST(CloudSimulator, OversizedUnitAtQueueHeadStillMakesProgress) {
  // Every arrival joins a 5-6 VM constraint group while the per-window
  // budget is 3: each unit is bigger than the whole budget.  The head
  // unit must be admitted alone (whole units never split), so the queue
  // keeps draining instead of deadlocking.
  SimConfig cfg;
  cfg.windows = 10;
  cfg.departure_probability = 0.2;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  cfg.scenario.constrained_fraction = 1.0;
  cfg.scenario.group_size_min = 5;
  cfg.scenario.group_size_max = 6;
  cfg.arrival_schedule = {6};
  cfg.max_admissions_per_window = 3;
  CloudSimulator sim(cfg, std::make_unique<RoundRobinAllocator>());
  const auto metrics = sim.run(31);

  std::size_t backlog = 0;
  bool oversized_admitted = false;
  for (const WindowMetrics& w : metrics) {
    if (backlog + w.arrived > 0) {
      EXPECT_GT(w.admitted, 0u) << "stalled at window " << w.window;
    }
    oversized_admitted =
        oversized_admitted || w.admitted > cfg.max_admissions_per_window;
    backlog = w.admission_queue_depth;
  }
  // The oversized arm actually fired: some window admitted a unit
  // larger than the nominal budget.
  EXPECT_TRUE(oversized_admitted);
}

}  // namespace
}  // namespace iaas
