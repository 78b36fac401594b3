#include "workload/market_events.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace iaas {

double shock_factor(const std::vector<PriceShock>& shocks, std::size_t w) {
  double factor = 1.0;
  for (const PriceShock& shock : shocks) {
    if (shock.active(w)) {
      factor *= shock.factor;
    }
  }
  return factor;
}

SpotPriceSeries diurnal_spot_series(std::size_t windows, double mean,
                                    double amplitude, std::size_t period,
                                    double jitter, std::uint64_t seed) {
  SpotPriceSeries series;
  series.multipliers.reserve(windows);
  Rng rng(seed);
  const double two_pi = 2.0 * 3.14159265358979323846;
  const auto cycle = static_cast<double>(period == 0 ? 1 : period);
  for (std::size_t w = 0; w < windows; ++w) {
    const double phase = two_pi * static_cast<double>(w) / cycle;
    double value = mean + amplitude * std::sin(phase);
    if (jitter > 0.0) {
      value *= rng.uniform_real(1.0 - jitter, 1.0 + jitter);
    }
    series.multipliers.push_back(std::max(value, 1e-3));
  }
  return series;
}

}  // namespace iaas
