// Dynamic-market event primitives and a scenario driver: spot-price
// series, price-shock schedules, and provider-level outage scripts.
//
// These are the workload-side inputs of the multi-cloud broker layer
// (src/broker): a CloudMarket prices each provider's Eq. 22 bill per
// window from a base multiplier x spot series x active shocks, and takes
// whole providers dark per the outage script (the provider-granularity
// correlated fault of the dynamic-market brokering literature —
// López-Pires et al., arXiv 2001.02561; Zhao et al., arXiv 1308.0841).
//
// Everything here is deterministic: the spot-series generator draws from
// an explicit seed, and the series and scripts are plain data replayed
// identically by every run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace iaas {

// Per-window multiplicative price factor for spot-style billing.  An
// empty series means "flat 1.0"; a non-empty one wraps around (periodic
// market), mirroring SimConfig::arrival_schedule semantics.
struct SpotPriceSeries {
  std::vector<double> multipliers;

  [[nodiscard]] double at(std::size_t window) const {
    return multipliers.empty()
               ? 1.0
               : multipliers[window % multipliers.size()];
  }
};

// One scripted price shock: the provider's usage bill is multiplied by
// `factor` for windows in [window, window + duration).
struct PriceShock {
  std::size_t window = 0;
  std::size_t duration = 1;
  double factor = 1.0;

  [[nodiscard]] bool active(std::size_t w) const {
    return w >= window && w - window < duration;
  }
};

// Combined shock factor at `w` (shocks overlap multiplicatively).
double shock_factor(const std::vector<PriceShock>& shocks, std::size_t w);

// One scripted provider-level outage: the whole cloud goes dark at
// `window` for `duration` windows — every hosted VM is evicted and must
// re-enter through the broker.  `decommission` makes the exit permanent
// (the provider leaves the market; redirect budgets keep its orphans
// from retrying against it forever).
struct ProviderOutageScript {
  std::size_t window = 0;
  std::uint32_t provider = 0;  // index into the market's provider list
  std::size_t duration = 1;
  bool decommission = false;
};

// --- deterministic scenario driver ---

// Sinusoidal diurnal spot market: multipliers oscillating around `mean`
// with the given amplitude and period (windows per cycle), plus bounded
// multiplicative jitter drawn from `seed`.  Values are clamped to stay
// strictly positive.
SpotPriceSeries diurnal_spot_series(std::size_t windows, double mean,
                                    double amplitude, std::size_t period,
                                    double jitter, std::uint64_t seed);

}  // namespace iaas
