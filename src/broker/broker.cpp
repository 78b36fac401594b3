#include "broker/broker.h"

#include <algorithm>
#include <utility>

#include "common/expect.h"

namespace iaas {
namespace {

// Routing feasibility: a provider can take a unit while its projected
// per-attribute utilisation stays under this fraction of effective
// capacity.
constexpr double kCapacityHeadroom = 0.9;

}  // namespace

BrokerAllocator::BrokerAllocator(CloudMarket& market, BrokerConfig config)
    : market_(&market), config_(std::move(config)) {
  backends_.resize(market.provider_count());
}

Allocator& BrokerAllocator::backend(std::size_t provider) {
  IAAS_EXPECT(provider < backends_.size(), "provider index out of range");
  if (backends_[provider] == nullptr) {
    backends_[provider] = make_allocator(config_.backend, config_.suite);
  }
  return *backends_[provider];
}

std::vector<double> BrokerAllocator::demand_of(
    const std::vector<VmRequest>& vms) {
  std::vector<double> demand;
  for (const VmRequest& vm : vms) {
    if (demand.size() < vm.demand.size()) {
      demand.resize(vm.demand.size(), 0.0);
    }
    for (std::size_t l = 0; l < vm.demand.size(); ++l) {
      demand[l] += vm.demand[l];
    }
  }
  return demand;
}

std::size_t BrokerAllocator::route(
    const std::vector<double>& unit_demand, std::size_t window,
    const std::vector<std::vector<double>>& projected_load,
    const std::vector<char>& exclude) const {
  // Candidates sorted by (effective multiplier, provider order) — the
  // cheapest-feasible rule, deterministic on ties.
  std::vector<std::pair<double, std::size_t>> candidates;
  for (std::size_t p = 0; p < market_->provider_count(); ++p) {
    const CloudProvider& provider = market_->provider(p);
    if (!provider.online() || (p < exclude.size() && exclude[p] != 0)) {
      continue;
    }
    candidates.emplace_back(provider.price_multiplier(window), p);
  }
  std::sort(candidates.begin(), candidates.end());
  for (const auto& [multiplier, p] : candidates) {
    (void)multiplier;
    const Infrastructure& infra = market_->provider(p).infrastructure();
    bool fits = true;
    for (std::size_t l = 0; l < unit_demand.size(); ++l) {
      const double capacity =
          l < infra.attribute_count()
              ? infra.total_effective_capacity(l) * kCapacityHeadroom
              : 0.0;
      const double load =
          l < projected_load[p].size() ? projected_load[p][l] : 0.0;
      if (load + unit_demand[l] > capacity) {
        fits = false;
        break;
      }
    }
    if (fits) {
      return p;
    }
  }
  return kNoProvider;
}

}  // namespace iaas
