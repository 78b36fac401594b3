#include "broker/market.h"

#include <limits>
#include <unordered_set>
#include <utility>

#include "common/expect.h"
#include "model/request_set.h"
#include "model/validate.h"
#include "workload/generator.h"

namespace iaas {

AvailabilityParams availability_defaults(AvailabilityClass availability) {
  switch (availability) {
    case AvailabilityClass::kGold:
      return {0.0, 0.0, 1};
    case AvailabilityClass::kSilver:
      return {0.01, 0.002, 1};
    case AvailabilityClass::kBronze:
      return {0.03, 0.01, 2};
  }
  return {};
}

double ProviderPricing::price_multiplier(std::size_t window) const {
  double base = on_demand_multiplier;
  if (billing == BillingModel::kReserved) {
    base = reserved_multiplier;
  } else if (billing == BillingModel::kSpot) {
    base = on_demand_multiplier * spot.at(window);
  }
  return base * shock_factor(shocks, window);
}

std::vector<std::string> validate_market(const CloudMarketConfig& config) {
  std::vector<std::string> findings;
  const auto add = [&findings](const std::string& finding) {
    findings.push_back("market: " + finding);
  };

  if (config.providers.empty()) {
    add("provider list is empty");
    return findings;
  }

  std::unordered_set<std::string> ids;
  const std::size_t attributes =
      config.providers.front().scenario.attribute_count;
  for (std::size_t p = 0; p < config.providers.size(); ++p) {
    const ProviderConfig& provider = config.providers[p];
    const std::string where = "provider[" + std::to_string(p) + "]";
    if (provider.id.empty()) {
      add(where + " has an empty id");
    } else if (!ids.insert(provider.id).second) {
      add(where + " duplicates id '" + provider.id + "'");
    }
    const ProviderPricing& pricing = provider.pricing;
    if (pricing.on_demand_multiplier <= 0.0) {
      add(where + " on_demand_multiplier must be positive");
    }
    if (pricing.reserved_multiplier <= 0.0) {
      add(where + " reserved_multiplier must be positive");
    }
    if (pricing.egress_migration_multiplier < 0.0) {
      add(where + " egress_migration_multiplier must be non-negative");
    }
    for (double multiplier : pricing.spot.multipliers) {
      if (multiplier <= 0.0) {
        add(where + " spot series contains a non-positive multiplier");
        break;
      }
    }
    for (const PriceShock& shock : pricing.shocks) {
      if (shock.factor <= 0.0) {
        add(where + " price shock factor must be positive");
      }
      if (shock.duration == 0) {
        add(where + " price shock duration must be at least one window");
      }
    }
    if (provider.scenario.total_servers == 0) {
      add(where + " has no servers");
    }
    if (provider.scenario.attribute_count != attributes) {
      add(where + " attribute_count differs from provider[0] — all "
                  "clouds must price the same resource vector");
    }
  }
  for (const ProviderOutageScript& outage : config.outages) {
    if (outage.provider >= config.providers.size()) {
      add("outage script references provider " +
          std::to_string(outage.provider) + " beyond the market");
    }
    if (outage.duration == 0 && !outage.decommission) {
      add("outage duration must be at least one window (or decommission)");
    }
  }
  return findings;
}

CloudProvider::CloudProvider(ProviderConfig config,
                             Infrastructure infrastructure,
                             std::uint64_t fault_seed)
    : config_(std::move(config)),
      infrastructure_(std::move(infrastructure)),
      faults_(
          [this] {
            // Inherit availability-class fault rates where the provider
            // config stayed at zero (scripted faults are kept verbatim).
            FaultConfig faults = config_.faults;
            const AvailabilityParams defaults =
                availability_defaults(config_.availability);
            if (faults.leaf_failure_probability == 0.0) {
              faults.leaf_failure_probability =
                  defaults.leaf_failure_probability;
            }
            return faults;
          }(),
          infrastructure_.fabric(), fault_seed) {}

CloudMarket::CloudMarket(CloudMarketConfig config, std::uint64_t seed)
    : config_(std::move(config)), outage_rng_(seed ^ 0x6d61726b6574ULL) {
  const std::vector<std::string> findings = validate_market(config_);
  for (const std::string& finding : findings) {
    IAAS_EXPECT(false, finding.c_str());
  }

  Rng rng(seed);
  providers_.reserve(config_.providers.size());
  for (const ProviderConfig& provider_config : config_.providers) {
    // One independent stream per provider, drawn in list order: adding a
    // provider at the end never reshuffles existing infrastructures.
    const std::uint64_t infra_seed = rng.next_u64();
    const std::uint64_t fault_seed = rng.next_u64();
    const ScenarioGenerator generator(provider_config.scenario);
    Infrastructure infra = generator.generate_infrastructure(infra_seed);
    // Screen the generated fleet through model/validate (NaN and
    // satisfiability screens) with an empty request set — a provider
    // whose infrastructure cannot host anything is a config error.
    const Instance screen(infra, RequestSet{});
    const std::vector<std::string> screen_findings =
        validate_instance(screen);
    for (const std::string& finding : screen_findings) {
      const std::string message =
          "market provider '" + provider_config.id + "': " + finding;
      IAAS_EXPECT(false, message.c_str());
    }
    providers_.emplace_back(provider_config, std::move(infra), fault_seed);
  }
}

std::size_t CloudMarket::online_count() const {
  std::size_t n = 0;
  for (const CloudProvider& provider : providers_) {
    n += provider.online() ? 1u : 0u;
  }
  return n;
}

bool CloudMarket::take_down(std::uint32_t p, std::size_t window,
                            std::size_t duration, bool decommission,
                            std::vector<MarketEvent>& events) {
  CloudProvider& provider = providers_[p];
  if (!provider.online()) {
    return false;  // already dark: no double event
  }
  provider.online_ = false;
  MarketEvent event;
  event.window = window;
  event.provider = p;
  if (decommission) {
    provider.decommissioned_ = true;
    event.kind = MarketEventKind::kProviderDecommission;
    event.mttr_windows = 0;
  } else {
    provider.recovery_window_ = window + duration + 1;  // +1: window 0 usable
    event.kind = MarketEventKind::kProviderOutage;
    event.mttr_windows = duration;
  }
  events.push_back(event);
  return true;
}

std::vector<MarketEvent> CloudMarket::advance(std::size_t window) {
  std::vector<MarketEvent> events;

  // Recoveries first: a provider can come back and fail again in the
  // same window (a fresh event), mirroring FaultModel::advance.
  for (std::uint32_t p = 0; p < providers_.size(); ++p) {
    CloudProvider& provider = providers_[p];
    if (!provider.online_ && !provider.decommissioned_ &&
        provider.recovery_window_ != 0 &&
        provider.recovery_window_ <= window + 1) {
      provider.online_ = true;
      provider.recovery_window_ = 0;
      MarketEvent event;
      event.window = window;
      event.kind = MarketEventKind::kProviderRecovery;
      event.provider = p;
      events.push_back(event);
    }
  }

  // Scripted outages next, in script order.
  for (const ProviderOutageScript& outage : config_.outages) {
    if (outage.window == window) {
      take_down(outage.provider, window, outage.duration,
                outage.decommission, events);
    }
  }

  // Random availability-class outages last, in provider order.  Every
  // eligible provider consumes exactly one draw per window whether or
  // not it fails, so one provider's history never shifts another's.
  for (std::uint32_t p = 0; p < providers_.size(); ++p) {
    const AvailabilityParams defaults =
        availability_defaults(providers_[p].config_.availability);
    if (defaults.provider_outage_probability <= 0.0) {
      continue;
    }
    const bool hit = outage_rng_.bernoulli(
        defaults.provider_outage_probability);
    if (hit) {
      take_down(p, window, defaults.outage_mttr_windows,
                /*decommission=*/false, events);
    }
  }
  return events;
}

double CloudMarket::cheapest_multiplier(std::size_t window) const {
  double cheapest = std::numeric_limits<double>::infinity();
  for (const CloudProvider& provider : providers_) {
    if (provider.online()) {
      cheapest = std::min(cheapest, provider.price_multiplier(window));
    }
  }
  return cheapest;
}

}  // namespace iaas
