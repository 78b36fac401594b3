#include "broker/multicloud_sim.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "algo/heuristics.h"
#include "common/expect.h"
#include "model/assignment_units.h"

namespace iaas {
namespace {

// Reshop limits (market-aware mode, step 5 of run()).
constexpr double kReshopThreshold = 1.5;
constexpr std::size_t kReshopMaxVmsPerWindow = 8;

// One unit awaiting routing this window: a whole fresh relationship
// group, or a single retried/reshopped VM (groups dissolve on failure,
// mirroring the single-cloud retry queue).
struct PoolUnit {
  RequestSet set;  // constraints local to set.vms
  std::size_t attempts = 0;
  std::size_t redirects = 0;
  std::int32_t home = -1;  // last host; -1 = fresh arrival
};

}  // namespace

MultiCloudSimulator::MultiCloudSimulator(MultiCloudSimConfig config)
    : config_(std::move(config)) {
  IAAS_EXPECT(std::isfinite(config_.arrivals_per_window_mean) &&
                  config_.arrivals_per_window_mean >= 0.0,
              "arrivals_per_window_mean must be finite and non-negative");
  IAAS_EXPECT(config_.departure_probability >= 0.0 &&
                  config_.departure_probability <= 1.0,
              "departure_probability must lie in [0, 1]");
  const std::vector<std::string> findings = validate_market(config_.market);
  for (const std::string& finding : findings) {
    IAAS_EXPECT(false, finding.c_str());
  }
}

std::vector<WindowMetrics> MultiCloudSimulator::run(std::uint64_t seed) {
  Rng rng(seed);
  CloudMarket market(config_.market, rng.next_u64());
  BrokerAllocator broker(market, config_.broker);
  const std::size_t providers = market.provider_count();

  // Request batches are provider-agnostic; provider 0's fleet merely
  // bounds same-server group sizes to something satisfiable.
  const ScenarioGenerator request_gen(config_.request_shape);
  const Infrastructure& group_bound_infra =
      market.provider(0).infrastructure();
  RetryQueue retries(config_.retry);
  FirstFitDecreasingAllocator fallback;
  const SolvePolicy policy{config_.warm_start_front};

  std::vector<Fleet> fleet(providers);  // each cloud's slice

  std::vector<WindowMetrics> metrics;
  metrics.reserve(config_.windows);

  for (std::size_t w = 0; w < config_.windows; ++w) {
    WindowMetrics row;
    row.window = w;
    row.providers.resize(providers);

    // 1. Provider lifecycle (whole-cloud outages/recoveries), then each
    // cloud's own server-granularity fault tick — MTTR clocks never
    // pause, dark cloud or not.
    (void)market.advance(w);
    row.offline_providers = providers - market.online_count();
    for (std::size_t p = 0; p < providers; ++p) {
      CloudProvider& provider = market.provider(p);
      ProviderWindowMetrics& prow = row.providers[p];
      prow.provider = static_cast<std::uint32_t>(p);
      prow.online = provider.online();
      prow.price_multiplier = provider.price_multiplier(w);
      for (const FaultEvent& e : provider.faults().advance(w)) {
        if (e.kind == FaultEventKind::kRepair) {
          ++row.repaired_servers;
        }
      }
      prow.failed_servers = provider.faults().down_count();
      row.failed_servers += prow.failed_servers;
      row.decommissioned_servers += provider.faults().decommissioned_count();
    }

    // 2. A cloud that went dark rejects its whole slice (every VM on it
    // is running, so each one is evicted) into the broker-level retry
    // queue: the VMs re-enter through routing — never the original
    // cloud directly — and the slice's carried front is dropped.  A
    // slice that is already empty keeps its front.
    for (std::size_t p = 0; p < providers; ++p) {
      if (market.provider(p).online() || fleet[p].empty()) {
        continue;
      }
      const Settled dark =
          settle_fleet(fleet[p], Placement(fleet[p].size()), retries, w,
                       static_cast<std::int32_t>(p));
      fleet[p].front.clear();
      row.evicted += dark.evicted;
      row.providers[p].evicted += dark.evicted;
      row.permanently_rejected += dark.permanently_rejected;
    }

    // 3. Departures, provider order then VM order (fixed draw sequence).
    for (Fleet& slice : fleet) {
      row.departed += slice.depart(config_.departure_probability, rng);
    }

    // 4. Routing pool: queued rejects whose backoff elapsed first (FIFO
    // fairness), then this window's fresh arrival batch, whole
    // relationship groups at a time.
    std::vector<PoolUnit> pool;
    for (RetryEntry& entry : retries.pop_due(w)) {
      PoolUnit& unit = pool.emplace_back();
      unit.set.vms.push_back(std::move(entry.vm));
      unit.attempts = entry.attempts;
      unit.redirects = entry.redirects;
      unit.home = entry.home_provider;
      ++row.retried;
    }

    const std::size_t arrivals = window_arrivals(
        config_.arrival_schedule, config_.arrivals_per_window_mean, w, rng);
    row.arrived = arrivals;
    if (arrivals > 0) {
      for (RequestSet& unit : split_units(request_gen.generate_requests(
               group_bound_infra, static_cast<std::uint32_t>(arrivals),
               rng.next_u64()))) {
        pool.push_back({std::move(unit)});
      }
    }

    // Projected per-provider load behind the routing headroom check:
    // what each cloud already hosts, updated as units land.
    std::vector<std::vector<double>> load(providers);
    for (std::size_t p = 0; p < providers; ++p) {
      load[p] = BrokerAllocator::demand_of(fleet[p].live.vms);
      load[p].resize(market.provider(p).infrastructure().attribute_count(),
                     0.0);
    }
    // sign is +1 or -1, so the scaled demand is exact.
    const auto shift_load = [&load](std::size_t p,
                                    const std::vector<double>& demand,
                                    double sign) {
      for (std::size_t l = 0;
           l < demand.size() && l < load[p].size(); ++l) {
        load[p][l] += sign * demand[l];
      }
    };

    // 5. Reshop (market-aware only): clouds charging more than
    // kReshopThreshold x the cheapest online multiplier shed up to
    // kReshopMaxVmsPerWindow group-free VMs with redirect budget left,
    // each moved only if some *other* cloud can take it now.
    if (config_.broker.mode == BrokerMode::kMarketAware) {
      const double cheapest = market.cheapest_multiplier(w);
      for (std::size_t p = 0; p < providers; ++p) {
        const CloudProvider& provider = market.provider(p);
        Fleet& slice = fleet[p];
        if (!provider.online() || slice.empty() ||
            provider.price_multiplier(w) <=
                cheapest * kReshopThreshold) {
          continue;
        }
        std::vector<char> grouped(slice.size(), 0);
        for (const PlacementConstraint& c : slice.live.constraints) {
          for (const std::uint32_t k : c.vms) {
            grouped[k] = 1;
          }
        }
        std::vector<char> keep(slice.size(), 1);
        std::vector<char> exclude(providers, 0);
        exclude[p] = 1;  // reshopping back home would be a placement reset
        std::size_t moved = 0;
        for (std::size_t k = 0;
             k < slice.size() && moved < kReshopMaxVmsPerWindow; ++k) {
          if (grouped[k] != 0 ||
              slice.redirects[k] >= config_.broker.max_redirects) {
            continue;
          }
          const VmRequest& vm = slice.live.vms[k];
          const std::size_t target =
              broker.route(vm.demand, w, load, exclude);
          if (target == BrokerAllocator::kNoProvider) {
            continue;
          }
          shift_load(target, vm.demand, 1.0);
          shift_load(p, vm.demand, -1.0);
          PoolUnit& unit = pool.emplace_back();
          unit.set.vms.push_back(vm);
          unit.attempts = slice.attempts[k];
          unit.redirects = slice.redirects[k];
          unit.home = static_cast<std::int32_t>(p);
          keep[k] = 0;
          ++moved;
        }
        if (moved > 0) {
          slice.compact(keep);
        }
      }
    }

    // 6. Route the pool.  Landing on a cloud other than the unit's last
    // host consumes redirect budget and pays Eq. 26 x the origin's
    // egress multiplier per VM; a unit whose budget is spent may only
    // return home — and is permanently rejected if home has left the
    // market for good.
    for (PoolUnit& unit : pool) {
      const bool budget_spent =
          unit.redirects >= config_.broker.max_redirects;
      std::vector<char> exclude;
      if (budget_spent && unit.home >= 0) {
        const auto home = static_cast<std::size_t>(unit.home);
        if (market.provider(home).decommissioned()) {
          row.permanently_rejected += unit.set.vm_count();
          continue;  // orphan of a dead cloud: stop circulating
        }
        exclude.assign(providers, 1);
        exclude[home] = 0;
      }
      const std::vector<double> demand =
          BrokerAllocator::demand_of(unit.set.vms);
      const std::size_t target = broker.route(demand, w, load, exclude);
      if (target == BrokerAllocator::kNoProvider) {
        // Nowhere fits this window: back to the queue (groups dissolve),
        // the attempt budget bounding the loop.
        for (VmRequest& vm : unit.set.vms) {
          if (!retries.offer(std::move(vm), unit.attempts + 1, w,
                             unit.redirects, unit.home)) {
            ++row.permanently_rejected;
          }
        }
        continue;
      }
      const bool redirected =
          unit.home >= 0 && static_cast<std::size_t>(unit.home) != target;
      std::size_t unit_redirects = unit.redirects;
      if (redirected) {
        ++unit_redirects;
        const double egress =
            market.provider(static_cast<std::size_t>(unit.home))
                .pricing()
                .egress_migration_multiplier;
        for (const VmRequest& vm : unit.set.vms) {
          row.cross_cloud_migration_cost += vm.migration_cost * egress;
        }
        row.redirects += unit.set.vm_count();
        row.providers[target].redirects_in += unit.set.vm_count();
      }
      shift_load(target, demand, 1.0);
      row.providers[target].routed += unit.set.vm_count();
      fleet[target].append(std::move(unit.set), unit.attempts,
                           unit_redirects);
    }

    // 7. Per-cloud rounds.  One backend seed per provider per window,
    // drawn up front in provider order whether or not the provider has
    // work — load changes can never shift another cloud's stream.
    std::vector<std::uint64_t> provider_seed(providers);
    for (std::size_t p = 0; p < providers; ++p) {
      provider_seed[p] = rng.next_u64();
    }

    for (std::size_t p = 0; p < providers; ++p) {
      if (fleet[p].empty()) {
        continue;
      }
      ProviderWindowMetrics& prow = row.providers[p];
      CloudProvider& provider = market.provider(p);
      FleetSolve step =
          solve_fleet(fleet[p], provider.infrastructure(), provider.faults(),
                      broker.backend(p), fallback, provider_seed[p], policy);
      row.degrade = std::max(row.degrade, step.degrade);  // worst cloud
      if (step.degrade == DegradeLevel::kFallback) {
        row.fallback_algorithm = fallback.name();
      }
      row.solve_seconds += step.seconds;
      prow.migrations = step.plan.migrations();
      prow.migration_cost = step.plan.migration_cost();
      prow.rejected = step.result.rejected;
      prow.objectives = step.result.objectives;
      prow.objectives.usage_cost *= prow.price_multiplier;
      row.boots += step.plan.boots();
      row.migrations += step.plan.migrations();
      row.migration_cost += step.plan.migration_cost();
      row.rejected += step.result.rejected;
      row.objectives.usage_cost += prow.objectives.usage_cost;
      row.objectives.downtime_cost += prow.objectives.downtime_cost;
      row.objectives.migration_cost += prow.objectives.migration_cost;

      // Rejected VMs leave this cloud — back through the broker while
      // their attempt budget lasts (the next window may route them to a
      // cheaper or emptier cloud).
      const Settled settled =
          settle_fleet(fleet[p], std::move(step.result.placement), retries,
                       w, static_cast<std::int32_t>(p));
      row.evicted += settled.evicted;
      prow.evicted += settled.evicted;
      row.permanently_rejected += settled.permanently_rejected;
      prow.running = fleet[p].size();
      row.running += prow.running;
    }
    row.retry_queue_depth = retries.size();
    metrics.push_back(std::move(row));
    if (window_sink_) {
      window_sink_(metrics.back());
    }
  }
  return metrics;
}

}  // namespace iaas
