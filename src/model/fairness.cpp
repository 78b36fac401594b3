#include "model/fairness.h"

#include <algorithm>
#include <cstddef>

#include "common/expect.h"
#include "model/placement_state.h"

namespace iaas {
namespace {

// Dominant fleet fraction of one demand vector: the largest share of
// total effective capacity it claims on any attribute (DRF-style, so
// heterogeneous attribute units compare on one scale).
double dominant_size(const std::vector<double>& demand,
                     const std::vector<double>& totals) {
  double size = 0.0;
  for (std::size_t l = 0; l < demand.size(); ++l) {
    if (totals[l] > 0.0) {
      size = std::max(size, demand[l] / totals[l]);
    }
  }
  return size;
}

// The linear server power model: a powered server draws kIdleFraction of
// its peak plus the rest in proportion to its CPU load, and its peak is
// kWattsPerCore per unit of CPU capacity.
constexpr double kIdleFraction = 0.4;
constexpr double kWattsPerCore = 10.0;

// Energy draw of the placement `state` (tracking kFull) is positioned
// at; servers hosting no VM are off and draw nothing.
double energy_cost(const Instance& instance, const PlacementState& state) {
  const std::size_t m = instance.m();
  if (instance.h() == 0) {
    return 0.0;
  }
  std::vector<std::uint32_t> hosted(m, 0);
  for (std::int32_t gene : state.placement().genes()) {
    if (gene != Placement::kRejected) {
      ++hosted[static_cast<std::size_t>(gene)];
    }
  }
  double watts = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    if (hosted[j] == 0) {
      continue;  // server is powered off
    }
    const double cpu_load = std::min(1.0, state.loads()(j, 0));
    watts += kWattsPerCore * instance.infra.server(j).capacity[0] *
             (kIdleFraction + (1.0 - kIdleFraction) * cpu_load);
  }
  return watts;
}

}  // namespace

double jain_index(std::span<const double> shares) {
  if (shares.empty()) {
    return 1.0;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : shares) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) {
    return 1.0;
  }
  return (sum * sum) / (static_cast<double>(shares.size()) * sum_sq);
}

FairnessReport compute_fairness(const Instance& instance,
                                const Placement& placement) {
  const std::size_t n = instance.n();
  const std::size_t h = instance.h();
  IAAS_EXPECT(placement.genes().size() == n,
              "fairness: placement size does not match instance");

  FairnessReport report;

  std::vector<double> totals(h, 0.0);
  for (std::size_t l = 0; l < h; ++l) {
    totals[l] = instance.infra.total_effective_capacity(l);
  }

  // Distinct consumer ids, ascending — the iteration order for every
  // sum below.
  std::vector<std::uint32_t> ids;
  ids.reserve(n);
  for (const VmRequest& vm : instance.requests.vms) {
    ids.push_back(vm.consumer);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  report.consumers.resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    report.consumers[i].consumer = ids[i];
  }

  double served_reported = 0.0;
  double served_actual = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const VmRequest& vm = instance.requests.vms[k];
    const std::size_t slot = static_cast<std::size_t>(
        std::lower_bound(ids.begin(), ids.end(), vm.consumer) - ids.begin());
    ConsumerShare& share = report.consumers[slot];
    const bool misreported = !vm.true_demand.empty();
    if (misreported) {
      share.strategic = true;
      ++report.strategic_vms;
    }
    const double actual = dominant_size(vm.actual_demand(), totals);
    share.requested += actual;
    if (placement.is_assigned(k)) {
      share.served += actual;
      served_actual += actual;
      served_reported += dominant_size(vm.demand, totals);
    }
  }

  std::vector<double> shares;
  shares.reserve(report.consumers.size());
  double honest_sum = 0.0;
  double strategic_sum = 0.0;
  std::uint32_t honest_count = 0;
  double max_welfare = 0.0;
  for (ConsumerShare& share : report.consumers) {
    share.welfare =
        share.requested > 0.0 ? share.served / share.requested : 1.0;
    shares.push_back(share.served);
    if (share.strategic) {
      ++report.strategic_consumers;
      strategic_sum += share.welfare;
    } else {
      ++honest_count;
      honest_sum += share.welfare;
    }
    max_welfare = std::max(max_welfare, share.welfare);
  }
  report.jain = jain_index(shares);
  if (honest_count > 0) {
    report.honest_welfare = honest_sum / static_cast<double>(honest_count);
  }
  if (report.strategic_consumers > 0) {
    report.strategic_welfare =
        strategic_sum / static_cast<double>(report.strategic_consumers);
  }
  if (!report.consumers.empty()) {
    double envy_sum = 0.0;
    for (const ConsumerShare& share : report.consumers) {
      envy_sum += std::max(0.0, max_welfare - share.welfare);
    }
    report.envy = envy_sum / static_cast<double>(report.consumers.size());
  }
  report.utilization_efficiency =
      served_reported > 0.0 ? served_actual / served_reported : 1.0;

  PlacementState state(instance);
  state.rebuild(placement);
  report.energy_cost = energy_cost(instance, state);
  return report;
}

}  // namespace iaas
