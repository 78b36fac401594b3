// Multi-provider time-window simulator: the single-cloud window lifted
// over a CloudMarket, with a BrokerAllocator deciding which cloud serves
// each request.  Each provider's slice is a Fleet re-solved by the same
// per-cloud round as CloudSimulator's (sim/fleet); this loop owns the
// market lifecycle, dark-cloud eviction, reshopping, routing and the
// price-scaled roll-up.
//
// Each window: the market's provider lifecycle ticks (scripted + random
// whole-cloud outages, recoveries), every provider's own FaultModel
// ticks, VMs hosted on a cloud that went dark are evicted into the
// *broker-level* retry queue (they re-enter through broker routing, not
// the original cloud), departures thin the fleet, queued rejects whose
// backoff elapsed plus a fresh arrival batch are routed — whole
// relationship groups at a time — to the cheapest feasible online
// provider, and each provider's backend allocator re-solves its slice
// with its previous placement as the migration baseline.
//
// Cross-cloud moves are priced asymmetrically: a VM landing on a
// provider other than its last host pays Eq. 26's migration cost times
// the *origin's* egress multiplier (data leaves the cheap cloud at the
// expensive cloud's gate), accumulated in
// WindowMetrics::cross_cloud_migration_cost.  Every redirection draws
// down the per-VM budget BrokerConfig::max_redirects; a VM that spends
// it — e.g. an orphan of a decommissioned provider nothing else can
// host — is permanently rejected instead of circulating forever.
//
// Determinism: every random draw flows from the run seed in a fixed
// order (market construction, departures in provider-then-VM order, the
// arrival batch, then one backend seed per provider per window whether
// or not the provider solves), so fingerprints are bit-identical across
// thread counts and telemetry build modes.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "broker/broker.h"
#include "broker/market.h"
#include "sim/retry_queue.h"
#include "sim/simulator.h"
#include "workload/scenario_config.h"

namespace iaas {

struct MultiCloudSimConfig {
  std::size_t windows = 10;
  double arrivals_per_window_mean = 20.0;  // Poisson arrivals, finite >= 0
  double departure_probability = 0.10;     // per running VM per window, [0, 1]
  // Periodic explicit schedule overriding the Poisson arrivals (same
  // semantics as SimConfig::arrival_schedule).
  std::vector<std::size_t> arrival_schedule;
  CloudMarketConfig market;
  BrokerConfig broker;
  RetryPolicy retry;
  // Shape of the consumer request batches (attribute_count must match
  // the providers'; server-side fields are ignored — each provider's
  // own scenario shapes its infrastructure).
  ScenarioConfig request_shape;
  // Persist each provider's final EA front across windows and feed it
  // back as seeds for that provider's next solve (satellite of the
  // warm-start ablation; no-op for non-EA backends).
  bool warm_start_front = false;
};

class MultiCloudSimulator {
 public:
  explicit MultiCloudSimulator(MultiCloudSimConfig config);

  // Run the full horizon; one metrics row per window, with the
  // per-provider columns (WindowMetrics::providers) populated.
  std::vector<WindowMetrics> run(std::uint64_t seed);

  // Per-window observer, as CloudSimulator::set_window_sink: streaming
  // trace writers receive each finished row before the next window runs.
  void set_window_sink(std::function<void(const WindowMetrics&)> sink) {
    window_sink_ = std::move(sink);
  }

  [[nodiscard]] const MultiCloudSimConfig& config() const {
    return config_;
  }

 private:
  MultiCloudSimConfig config_;
  std::function<void(const WindowMetrics&)> window_sink_;
};

}  // namespace iaas
