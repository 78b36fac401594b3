// The N-provider market model that lifts the paper's single-provider
// stack to a multi-cloud setting (ROADMAP: multi-cloud brokering and
// market scenarios; López-Pires et al., arXiv 2001.02561; Zhao et al.,
// arXiv 1308.0841).
//
// Each CloudProvider wraps its own Infrastructure + Fabric (generated
// from a per-provider ScenarioConfig), a pricing model layered on the
// Eq. 22/23/26 cost split (on-demand / reserved base multipliers, an
// optional spot price series, scripted price shocks, and an egress
// multiplier that prices cross-cloud moves asymmetrically on top of
// Eq. 26), an availability class, and a PR-5 FaultModel for
// server/rack-granularity failures inside the cloud.  The CloudMarket
// owns the providers plus the provider-granularity outage script: a
// market-level correlated fault takes an entire cloud dark at once —
// every hosted VM is evicted and re-enters through the broker, not the
// original cloud.
//
// Config validation is fail-loud in the model/validate idiom: a findings
// vector for inspection (validate_market) and an IAAS_EXPECT in the
// CloudMarket constructor; each generated provider infrastructure is
// additionally screened through model/validate's validate_instance.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/expect.h"
#include "common/rng.h"
#include "model/infrastructure.h"
#include "sim/fault_model.h"
#include "workload/market_events.h"
#include "workload/scenario_config.h"

namespace iaas {

// Billing model selecting the base multiplier applied to a provider's
// Eq. 22 usage+opex bill.
enum class BillingModel : std::uint8_t {
  kOnDemand,  // flat on_demand_multiplier
  kReserved,  // discounted reserved_multiplier (capacity paid up front)
  kSpot,      // on_demand_multiplier x per-window spot series
};

// Outage-rate presets keyed by marketing tier; merged into a provider's
// FaultConfig when the provider does not script its own rates, and
// driving the market-level random provider-outage draw.
enum class AvailabilityClass : std::uint8_t {
  kGold,    // no random outages
  kSilver,  // rare rack faults, very rare provider blackouts
  kBronze,  // frequent rack faults, occasional provider blackouts
};

struct AvailabilityParams {
  double leaf_failure_probability = 0.0;      // per rack per window
  double provider_outage_probability = 0.0;   // whole cloud, per window
  std::size_t outage_mttr_windows = 1;
};

AvailabilityParams availability_defaults(AvailabilityClass availability);

struct ProviderPricing {
  BillingModel billing = BillingModel::kOnDemand;
  double on_demand_multiplier = 1.0;  // scales Eq. 22 (usage + opex)
  double reserved_multiplier = 0.7;   // kReserved base
  SpotPriceSeries spot;               // kSpot: per-window factor, wraps
  std::vector<PriceShock> shocks;     // scripted market shocks
  // Cross-cloud migration-cost asymmetry: moving a VM *out* of this
  // provider costs M_k x this factor on top of Eq. 26 (data egress).
  double egress_migration_multiplier = 2.0;

  // Effective Eq. 22 multiplier at `window`: billing base x spot series
  // (kSpot only) x active shocks.
  [[nodiscard]] double price_multiplier(std::size_t window) const;
};

struct ProviderConfig {
  std::string id;            // unique market-wide name
  ScenarioConfig scenario;   // this provider's infrastructure shape
  ProviderPricing pricing;
  AvailabilityClass availability = AvailabilityClass::kGold;
  // Intra-cloud fault rates; zero-rate fields inherit the availability
  // class defaults (scripted entries are kept either way).
  FaultConfig faults;
};

struct CloudMarketConfig {
  std::vector<ProviderConfig> providers;
  // Scripted provider-granularity outages (workload/market_events).
  std::vector<ProviderOutageScript> outages;

  [[nodiscard]] std::size_t provider_count() const {
    return providers.size();
  }
};

// Fail-loud validation findings (empty = clean): empty provider list,
// duplicate/empty provider ids, non-positive price multipliers, bad
// spot/shock values, attribute-count mismatches, out-of-range outage
// scripts.  The CloudMarket constructor refuses any config with
// findings.
std::vector<std::string> validate_market(const CloudMarketConfig& config);

// Market-level provider lifecycle events (the provider-granularity
// mirror of FaultEvent).
enum class MarketEventKind : std::uint8_t {
  kProviderOutage,        // cloud dark for mttr_windows
  kProviderRecovery,      // cloud back online
  kProviderDecommission,  // cloud left the market permanently
};

struct MarketEvent {
  std::size_t window = 0;
  MarketEventKind kind = MarketEventKind::kProviderOutage;
  std::uint32_t provider = 0;
  std::size_t mttr_windows = 0;  // outages only; 0 = permanent

  friend bool operator==(const MarketEvent&, const MarketEvent&) = default;
};

// One cloud of the market: infrastructure + fault model + pricing.
class CloudProvider {
 public:
  CloudProvider(ProviderConfig config, Infrastructure infrastructure,
                std::uint64_t fault_seed);

  [[nodiscard]] const std::string& id() const { return config_.id; }
  [[nodiscard]] const ProviderConfig& config() const { return config_; }
  [[nodiscard]] const Infrastructure& infrastructure() const {
    return infrastructure_;
  }
  [[nodiscard]] const ProviderPricing& pricing() const {
    return config_.pricing;
  }
  [[nodiscard]] FaultModel& faults() { return faults_; }

  [[nodiscard]] bool online() const { return online_ && !decommissioned_; }
  [[nodiscard]] bool decommissioned() const { return decommissioned_; }

  [[nodiscard]] double price_multiplier(std::size_t window) const {
    return config_.pricing.price_multiplier(window);
  }

 private:
  friend class CloudMarket;

  ProviderConfig config_;
  Infrastructure infrastructure_;
  FaultModel faults_;
  bool online_ = true;
  bool decommissioned_ = false;
  std::size_t recovery_window_ = 0;  // first window online again (+1 offset)
};

// The provider set plus the market-level outage lifecycle.  All
// randomness (infrastructure generation, per-provider fault streams,
// availability-class outage draws) flows from the constructor seed, so
// identical (config, seed) pairs replay identical markets.
class CloudMarket {
 public:
  CloudMarket(CloudMarketConfig config, std::uint64_t seed);

  [[nodiscard]] std::size_t provider_count() const {
    return providers_.size();
  }
  [[nodiscard]] CloudProvider& provider(std::size_t p) {
    IAAS_EXPECT(p < providers_.size(), "provider index out of range");
    return providers_[p];
  }
  [[nodiscard]] const CloudProvider& provider(std::size_t p) const {
    IAAS_EXPECT(p < providers_.size(), "provider index out of range");
    return providers_[p];
  }

  [[nodiscard]] std::size_t online_count() const;

  // One window tick of the provider lifecycle: recoveries due this
  // window first, then scripted outages, then random availability-class
  // outages — deterministic order, mirroring FaultModel::advance.  The
  // per-provider FaultModels are NOT advanced here (the simulator owns
  // that, per provider, so server- and provider-granularity histories
  // stay independently seeded).
  std::vector<MarketEvent> advance(std::size_t window);

  // Cheapest effective multiplier among online providers this window
  // (+infinity when the whole market is dark).
  [[nodiscard]] double cheapest_multiplier(std::size_t window) const;

  [[nodiscard]] const CloudMarketConfig& config() const { return config_; }

 private:
  bool take_down(std::uint32_t p, std::size_t window, std::size_t duration,
                 bool decommission, std::vector<MarketEvent>& events);

  CloudMarketConfig config_;
  std::vector<CloudProvider> providers_;
  Rng outage_rng_;
};

}  // namespace iaas
