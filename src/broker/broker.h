// BrokerAllocator: the routing rule and the per-cloud backends the
// multi-cloud simulator (broker/multicloud_sim) drives each window.
//
// Routing is greedy cheapest-feasible: assignment units (the transitive
// closure of each relationship group — a group is never split across
// clouds, so every Eq. 9-12 constraint stays locally checkable) are
// offered to online providers in ascending effective-price order, the
// first one whose projected utilisation stays under the headroom cap
// taking the unit.  The market-aware mode additionally reshops: VMs on
// a cloud whose price has spiked are re-routed to cheaper clouds, paying
// the cross-cloud egress bill.
//
// The per-cloud backend is any registered allocator (algo/registry), so
// the paper's NSGA-III+tabu — or the CP baseline, or first-fit — can
// serve each cloud unchanged.  One backend instance is kept per
// provider, which is what lets EA backends carry warm-start fronts
// across windows in the multi-cloud simulator.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "algo/registry.h"
#include "broker/market.h"
#include "model/vm_request.h"

namespace iaas {

enum class BrokerMode : std::uint8_t {
  kCheapestFeasible,  // route arrivals and retries only
  kMarketAware,       // + price-driven reshopping of running VMs
};

struct BrokerConfig {
  BrokerMode mode = BrokerMode::kCheapestFeasible;
  // Per-cloud backend, built through algo/registry.
  AlgorithmId backend = AlgorithmId::kFirstFitDecreasing;
  SuiteOptions suite;
  // Cross-cloud redirect budget per VM (outages, rejections, reshops):
  // a VM redirected more than this many times is permanently rejected —
  // the bound that keeps an orphan of a decommissioned cloud from
  // circulating forever.
  std::size_t max_redirects = 3;
};

class BrokerAllocator {
 public:
  static constexpr std::size_t kNoProvider = static_cast<std::size_t>(-1);

  // `market` must outlive the broker.
  BrokerAllocator(CloudMarket& market, BrokerConfig config);

  // Routing primitive: cheapest online provider (by effective price
  // multiplier at `window`, provider order breaking ties) that can take
  // `unit_demand` (summed per attribute) while `projected_load[p][l] +
  // demand <= headroom x effective capacity`, at a fixed 90% headroom;
  // `exclude[p]` skips providers already tried.  kNoProvider when
  // nothing fits.
  [[nodiscard]] std::size_t route(const std::vector<double>& unit_demand,
                                  std::size_t window,
                                  const std::vector<std::vector<double>>&
                                      projected_load,
                                  const std::vector<char>& exclude) const;

  // The per-provider backend allocator (built lazily from the registry;
  // one instance per provider, kept across calls).
  Allocator& backend(std::size_t provider);

  // Summed per-attribute demand of a unit's VMs (what route() checks and
  // the caller then adds to the unit's projected load, as one sum).
  static std::vector<double> demand_of(const std::vector<VmRequest>& vms);

 private:
  CloudMarket* market_;
  BrokerConfig config_;
  std::vector<std::unique_ptr<Allocator>> backends_;
};

}  // namespace iaas
