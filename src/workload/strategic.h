// Strategic-consumer mode: a deterministic post-pass that lets a fixed
// subset of consumers misreport their workload (Karma/Ginseng-style
// greedy users).  The pass never consumes draws from the honest
// generator stream — each strategic consumer gets its own counter-keyed
// RNG stream derived from (batch seed, consumer id) — so
// strategic_fraction == 0 reproduces the honest output byte for byte,
// and the strategic set is identical at any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/infrastructure.h"
#include "model/request_set.h"
#include "workload/scenario_config.h"

namespace iaas {

// Full fail-loud screen of a ScenarioConfig (sizes and fractions plus
// the consumer/strategic block), mirroring validate_market: every
// problem is reported as a human-readable finding; an empty vector
// means the config is usable.  ScenarioGenerator aborts on the first
// finding via IAAS_EXPECT.
[[nodiscard]] std::vector<std::string> validate_scenario(
    const ScenarioConfig& config);

// The strategic set over `consumers` tenants: the ceil(fraction * N)
// consumers whose id hash ranks smallest.  Rank-based rather than
// per-consumer coin flips, so any fraction > 0 marks at least one
// consumer, the count is exact, and raising the fraction only ever
// *adds* members (nested sets).  Pure hash — stable across windows,
// batches, and thread counts; no stream consumption.
[[nodiscard]] std::vector<char> strategic_consumer_mask(
    const StrategicConfig& config, std::uint32_t consumers);

// The profile consumer `c` plays (round-robin over config.profiles).
// Precondition: config.profiles is non-empty.
[[nodiscard]] const StrategyProfile& strategy_profile_of(
    const StrategicConfig& config, std::uint32_t consumer);

// Applies every strategic consumer's misreporting to an honestly
// generated batch: demand inflation (honest vector saved into
// VmRequest::true_demand, inflated report clamped to the largest
// effective server capacity so single VMs stay placeable), optional
// padded anti-affinity groups over the consumer's unconstrained VMs
// (preserving the one-group-per-VM invariant), and batch-level demand
// bursts.  No-op when config.consumers == 0 or the strategic mode is
// disabled.
void apply_strategies(RequestSet& requests, const Infrastructure& infra,
                      const ScenarioConfig& config, std::uint64_t batch_seed);

}  // namespace iaas
