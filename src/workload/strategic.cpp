#include "workload/strategic.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/rng.h"

namespace iaas {
namespace {

constexpr std::uint64_t kStrategySalt = 0x73747261746567ULL;  // "strateg"

// Seed for one consumer's private stream within one request batch.
// Keyed on the batch seed (so bursts re-roll each window), the
// strategy_seed salt, and the consumer id via child_stream (counter
// derivation — independent streams, nothing consumed from any parent).
Rng consumer_stream(const StrategicConfig& config, std::uint64_t batch_seed,
                    std::uint32_t consumer) {
  const Rng base(batch_seed ^ kStrategySalt ^ config.strategy_seed);
  return base.child_stream(consumer);
}

}  // namespace

std::vector<StrategyProfile> default_strategy_profiles() {
  StrategyProfile inflator;  // big steady over-ask, rarely pads groups
  inflator.inflation_min = 1.4;
  inflator.inflation_max = 2.0;
  inflator.pad_anti_affinity_probability = 0.2;
  inflator.burst_probability = 0.1;

  StrategyProfile padder;  // mild inflation, spreads VMs over servers
  padder.inflation_min = 1.1;
  padder.inflation_max = 1.3;
  padder.pad_anti_affinity_probability = 0.8;
  padder.pad_group_size = 4;
  padder.burst_probability = 0.1;

  StrategyProfile burster;  // honest-ish baseline, heavy timed bursts
  burster.inflation_min = 1.0;
  burster.inflation_max = 1.1;
  burster.pad_anti_affinity_probability = 0.2;
  burster.burst_probability = 0.5;
  burster.burst_multiplier = 2.0;

  return {inflator, padder, burster};
}

std::vector<std::string> validate_scenario(const ScenarioConfig& config) {
  std::vector<std::string> findings;
  const auto add = [&findings](const std::string& finding) {
    findings.push_back("scenario: " + finding);
  };

  if (config.datacenters == 0) {
    add("datacenters must be positive");
  }
  if (config.total_servers == 0) {
    add("total_servers must be positive");
  }
  if (config.attribute_count < 3) {
    add("attribute_count must cover cpu/ram/disk");
  }
  if (!(config.factor_min > 0.0 && config.factor_min <= config.factor_max &&
        config.factor_max <= 1.0)) {
    add("factor range must satisfy 0 < min <= max <= 1");
  }
  if (!(config.qos_guarantee_min > 0.0 &&
        config.qos_guarantee_min <= config.qos_guarantee_max &&
        config.qos_guarantee_max < 1.0)) {
    add("qos_guarantee range must satisfy 0 < min <= max < 1");
  }
  if (config.constrained_fraction < 0.0 || config.constrained_fraction > 1.0) {
    add("constrained_fraction must lie in [0, 1]");
  }
  if (config.preplaced_fraction < 0.0 || config.preplaced_fraction > 1.0) {
    add("preplaced_fraction must lie in [0, 1]");
  }
  if (config.group_size_min < 2 ||
      config.group_size_max < config.group_size_min) {
    add("relationship groups need at least two members");
  }

  const StrategicConfig& strategic = config.strategic;
  if (strategic.strategic_fraction < 0.0) {
    add("strategic_fraction must not be negative");
  }
  if (strategic.strategic_fraction > 1.0) {
    add("strategic_fraction must not exceed 1");
  }
  if (strategic.enabled() && config.consumers == 0) {
    add("strategic consumers require consumers > 0");
  }
  if (strategic.enabled() && strategic.profiles.empty()) {
    add("strategic_fraction > 0 with an empty strategy profile set");
  }
  for (std::size_t p = 0; p < strategic.profiles.size(); ++p) {
    const StrategyProfile& profile = strategic.profiles[p];
    const std::string where = "profile[" + std::to_string(p) + "]";
    if (profile.inflation_min < 1.0) {
      add(where + " inflation_min must be >= 1 (consumers only over-report)");
    }
    if (profile.inflation_max < profile.inflation_min) {
      add(where + " inflation_max must be >= inflation_min");
    }
    if (profile.pad_anti_affinity_probability < 0.0 ||
        profile.pad_anti_affinity_probability > 1.0) {
      add(where + " pad_anti_affinity_probability must lie in [0, 1]");
    }
    if (profile.pad_group_size < 2) {
      add(where + " pad_group_size needs at least two members");
    }
    if (profile.burst_probability < 0.0 || profile.burst_probability > 1.0) {
      add(where + " burst_probability must lie in [0, 1]");
    }
    if (profile.burst_multiplier < 1.0) {
      add(where + " burst_multiplier must be >= 1");
    }
  }
  return findings;
}

std::vector<char> strategic_consumer_mask(const StrategicConfig& config,
                                          std::uint32_t consumers) {
  std::vector<char> mask(consumers, 0);
  if (!config.enabled() || consumers == 0) {
    return mask;
  }
  const auto want = std::min<std::size_t>(
      consumers,
      static_cast<std::size_t>(std::ceil(
          config.strategic_fraction * static_cast<double>(consumers))));
  // Order consumers by a private hash draw (ties — impossible in
  // practice for doubles — break by id) and mark the first `want`.
  std::vector<std::pair<double, std::uint32_t>> ranked;
  ranked.reserve(consumers);
  for (std::uint32_t c = 0; c < consumers; ++c) {
    Rng probe(config.strategy_seed * 0x9E3779B97F4A7C15ULL +
              static_cast<std::uint64_t>(c));
    ranked.emplace_back(probe.next_double(), c);
  }
  std::sort(ranked.begin(), ranked.end());
  for (std::size_t i = 0; i < want; ++i) {
    mask[ranked[i].second] = 1;
  }
  return mask;
}

const StrategyProfile& strategy_profile_of(const StrategicConfig& config,
                                           std::uint32_t consumer) {
  return config.profiles[consumer % config.profiles.size()];
}

void apply_strategies(RequestSet& requests, const Infrastructure& infra,
                      const ScenarioConfig& config, std::uint64_t batch_seed) {
  const StrategicConfig& strategic = config.strategic;
  if (config.consumers == 0 || !strategic.enabled()) {
    return;
  }
  const std::size_t h = infra.attribute_count();
  const std::size_t n = requests.vms.size();

  // Inflated reports are clamped to the largest effective capacity per
  // attribute so a lone strategic VM never becomes unplaceable.
  std::vector<double> max_eff(h, 0.0);
  for (std::size_t j = 0; j < infra.server_count(); ++j) {
    for (std::size_t l = 0; l < h; ++l) {
      max_eff[l] = std::max(max_eff[l], infra.server(j).effective_capacity(l));
    }
  }

  std::vector<char> in_group(n, 0);
  for (const PlacementConstraint& constraint : requests.constraints) {
    for (std::uint32_t k : constraint.vms) {
      in_group[k] = 1;
    }
  }

  const std::vector<char> mask =
      strategic_consumer_mask(strategic, config.consumers);
  for (std::uint32_t c = 0; c < config.consumers; ++c) {
    if (mask[c] == 0) {
      continue;
    }
    const StrategyProfile& profile = strategy_profile_of(strategic, c);
    Rng rng = consumer_stream(strategic, batch_seed, c);

    // Burst timing: the whole batch of this consumer spikes together.
    const bool burst = rng.bernoulli(profile.burst_probability);

    std::vector<std::uint32_t> mine;
    for (std::size_t k = 0; k < n; ++k) {
      if (requests.vms[k].consumer == c) {
        mine.push_back(static_cast<std::uint32_t>(k));
      }
    }
    if (mine.empty()) {
      continue;
    }

    for (std::uint32_t k : mine) {
      VmRequest& vm = requests.vms[k];
      double factor = rng.uniform_real(profile.inflation_min,
                                       profile.inflation_max);
      if (burst) {
        factor *= profile.burst_multiplier;
      }
      vm.true_demand = vm.demand;
      for (std::size_t l = 0; l < h; ++l) {
        vm.demand[l] = std::min(vm.demand[l] * factor, max_eff[l]);
      }
    }

    // Padded anti-affinity: fabricate a different-servers group over the
    // consumer's VMs that are not already in a relationship group.
    if (rng.bernoulli(profile.pad_anti_affinity_probability)) {
      std::vector<std::uint32_t> free_vms;
      for (std::uint32_t k : mine) {
        if (!in_group[k]) {
          free_vms.push_back(k);
        }
      }
      rng.shuffle(free_vms);
      const std::size_t size =
          std::min({static_cast<std::size_t>(profile.pad_group_size),
                    free_vms.size(),
                    static_cast<std::size_t>(infra.server_count())});
      if (size >= 2) {
        PlacementConstraint padded;
        padded.kind = RelationKind::kDifferentServers;
        padded.vms.assign(free_vms.begin(),
                          free_vms.begin() + static_cast<std::ptrdiff_t>(size));
        std::sort(padded.vms.begin(), padded.vms.end());
        for (std::uint32_t k : padded.vms) {
          in_group[k] = 1;
        }
        requests.constraints.push_back(std::move(padded));
      }
    }
  }
}

}  // namespace iaas
