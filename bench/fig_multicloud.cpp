// Multi-cloud brokering: what an N-provider market buys (and costs)
// versus a single consolidated cloud, under two stress families the
// dynamic-market literature studies — price shocks and whole-provider
// outages (extension figure; the paper models one provider).
//
// Three allocation modes run the same workload over the same horizon:
//   single-cloud        one merged provider holding every server
//                       (the paper's §III setting, run through the
//                       same multi-cloud pipeline for a fair metric);
//   brokered/cheapest   three specialised providers, greedy
//                       cheapest-feasible routing, first-fit backends;
//   brokered/market     same market, market-aware mode (price-driven
//                       reshopping) with the paper's NSGA-III+tabu
//                       backend at a reduced budget.
//
// Part 3 is the warm-start ablation: the market-aware EA config with
// SimConfig-style front persistence ON vs OFF — same seeds, same
// market — comparing the Eq. 22 bill and total cost.
//
// Emits BENCH_multicloud.json (acceptance rate + the Eq. 22/23/26 cost
// split per scenario x mode) and prints one deterministic_fingerprint
// per run — CI diffs them between telemetry ON and OFF builds, and this
// binary itself re-runs each scenario to check bit-identical replay.
//
// Environment knobs: IAAS_BENCH_FAST (shrink budgets), IAAS_SIM_WINDOWS
// (horizon override), IAAS_BENCH_SIZES (servers per provider),
// IAAS_BENCH_CSV_DIR.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "broker/multicloud_sim.h"
#include "common/csv.h"
#include "io/emit.h"
#include "io/trace_binary.h"
#include "io/trace_stream.h"

namespace {

using namespace iaas;

bool fast_mode() { return std::getenv("IAAS_BENCH_FAST") != nullptr; }

std::size_t sim_windows(std::size_t fallback) {
  if (const char* env = std::getenv("IAAS_SIM_WINDOWS")) {
    const long parsed = std::atol(env);
    if (parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  return fallback;
}

std::uint32_t servers_per_provider() {
  if (const char* env = std::getenv("IAAS_BENCH_SIZES")) {
    const long parsed = std::atol(env);  // first value of the list
    if (parsed > 0) {
      return static_cast<std::uint32_t>(parsed);
    }
  }
  return fast_mode() ? 16 : 32;
}

// The three-provider market: a premium gold on-demand cloud, a
// discounted silver reserved cloud, and a volatile bronze spot cloud.
CloudMarketConfig three_provider_market(std::uint32_t servers,
                                        std::size_t windows) {
  CloudMarketConfig market;
  ProviderConfig gold;
  gold.id = "gold-od";
  gold.scenario = ScenarioConfig::paper_scale(servers, 1);
  gold.pricing.billing = BillingModel::kOnDemand;
  gold.pricing.on_demand_multiplier = 1.0;
  gold.pricing.egress_migration_multiplier = 2.0;
  gold.availability = AvailabilityClass::kGold;

  ProviderConfig silver;
  silver.id = "silver-rsv";
  silver.scenario = ScenarioConfig::paper_scale(servers, 1);
  silver.pricing.billing = BillingModel::kReserved;
  silver.pricing.reserved_multiplier = 0.7;
  silver.pricing.egress_migration_multiplier = 2.5;
  silver.availability = AvailabilityClass::kGold;  // scripted faults only

  ProviderConfig bronze;
  bronze.id = "bronze-spot";
  bronze.scenario = ScenarioConfig::paper_scale(servers, 1);
  bronze.pricing.billing = BillingModel::kSpot;
  bronze.pricing.on_demand_multiplier = 0.9;
  bronze.pricing.spot =
      diurnal_spot_series(windows, /*mean=*/0.6, /*amplitude=*/0.3,
                          /*period=*/8, /*jitter=*/0.05, /*seed=*/7);
  bronze.pricing.egress_migration_multiplier = 3.0;
  bronze.availability = AvailabilityClass::kGold;

  market.providers = {gold, silver, bronze};
  return market;
}

CloudMarketConfig merged_single_cloud(std::uint32_t servers) {
  CloudMarketConfig market;
  ProviderConfig mono;
  mono.id = "single";
  mono.scenario = ScenarioConfig::paper_scale(servers, 2);
  mono.pricing.billing = BillingModel::kOnDemand;
  mono.pricing.on_demand_multiplier = 1.0;
  market.providers = {mono};
  return market;
}

struct RunStats {
  std::size_t arrived = 0;
  std::size_t permanently_rejected = 0;
  std::size_t redirects = 0;
  std::size_t evicted = 0;
  std::size_t offline_provider_windows = 0;
  double usage_cost = 0.0;      // Eq. 22, price-scaled
  double downtime_cost = 0.0;   // Eq. 23
  double migration_cost = 0.0;  // Eq. 26, intra-cloud
  double cross_cloud_migration_cost = 0.0;
  std::uint64_t fingerprint = 0;

  [[nodiscard]] double acceptance_rate() const {
    return arrived == 0
               ? 1.0
               : 1.0 - static_cast<double>(permanently_rejected) /
                           static_cast<double>(arrived);
  }
  [[nodiscard]] double total_cost() const {
    return usage_cost + downtime_cost + migration_cost +
           cross_cloud_migration_cost;
  }
};

RunStats collect(const std::vector<WindowMetrics>& metrics) {
  RunStats s;
  for (const WindowMetrics& w : metrics) {
    s.arrived += w.arrived;
    s.permanently_rejected += w.permanently_rejected;
    s.redirects += w.redirects;
    s.evicted += w.evicted;
    s.offline_provider_windows += w.offline_providers;
    s.usage_cost += w.objectives.usage_cost;
    s.downtime_cost += w.objectives.downtime_cost;
    s.migration_cost += w.migration_cost;
    s.cross_cloud_migration_cost += w.cross_cloud_migration_cost;
  }
  s.fingerprint = deterministic_fingerprint(metrics);
  return s;
}

struct ModeResult {
  std::string scenario;
  std::string mode;
  RunStats stats;
  bool replay_identical = false;
  bool trace_roundtrip_ok = false;  // binary trace reloads bit-exact
};

// Mode names carry '/' (e.g. "brokered/market") — flatten for paths.
std::string path_token(const std::string& name) {
  std::string token = name;
  for (char& c : token) {
    if (c == '/') {
      c = '-';
    }
  }
  return token;
}

// Reduced-budget NSGA-III+tabu suite for the market-aware backends:
// per-window, per-provider solves need seconds, not the full Table III
// budget.
SuiteOptions reduced_ea_suite() {
  SuiteOptions suite;
  suite.ea.nsga.population_size = 20;
  suite.ea.nsga.max_evaluations = fast_mode() ? 200 : 600;
  suite.ea.nsga.reference_divisions = 6;
  suite.ea.nsga.threads = 1;
  return suite;
}

MultiCloudSimConfig base_config(std::size_t windows,
                                std::uint32_t servers) {
  MultiCloudSimConfig cfg;
  cfg.windows = windows;
  cfg.departure_probability = 0.08;
  // Deterministic periodic schedule so every mode sees the same demand.
  cfg.arrival_schedule = {24, 18, 12, 20, 16, 10, 22, 14};
  cfg.retry.max_attempts = 4;
  cfg.request_shape = ScenarioConfig::paper_scale(servers, 1);
  cfg.broker.max_redirects = 3;
  return cfg;
}

ModeResult run_mode(const std::string& scenario, const std::string& mode,
                    const MultiCloudSimConfig& cfg, std::uint64_t seed) {
  MultiCloudSimulator sim(cfg);
  // Stream the brokered trace to the compact binary format while the
  // horizon runs — each window is flushed as it completes.
  const std::string trace_path = bench::csv_dir() + "/trace_multicloud_" +
                                 scenario + "_" + path_token(mode) + ".trc";
  BinaryTraceWriter trace_writer(trace_path);
  sim.set_window_sink(
      [&](const WindowMetrics& row) { trace_writer.append(row); });
  const RunStats stats = collect(sim.run(seed));
  trace_writer.finish();
  MultiCloudSimulator replay(cfg);
  const RunStats again = collect(replay.run(seed));
  ModeResult result;
  result.scenario = scenario;
  result.mode = mode;
  result.stats = stats;
  result.replay_identical = stats.fingerprint == again.fingerprint;
  result.trace_roundtrip_ok =
      deterministic_fingerprint(read_binary_sim_trace(trace_path)) ==
      stats.fingerprint;
  std::printf(
      "%-14s %-18s accept=%5.3f usage=%9.1f downtime=%8.1f "
      "migration=%8.1f egress=%7.1f redirects=%3zu replay=%s\n",
      scenario.c_str(), mode.c_str(), stats.acceptance_rate(),
      stats.usage_cost, stats.downtime_cost, stats.migration_cost,
      stats.cross_cloud_migration_cost, stats.redirects,
      result.replay_identical ? "ok" : "DIVERGED");
  std::printf("deterministic_fingerprint=%016llx  # %s/%s\n",
              static_cast<unsigned long long>(stats.fingerprint),
              scenario.c_str(), mode.c_str());
  return result;
}

}  // namespace

int main() {
  std::printf("=== Multi-cloud brokering: market vs single cloud ===\n\n");
  const std::uint32_t servers = servers_per_provider();
  const std::size_t windows = sim_windows(fast_mode() ? 10 : 24);
  const std::uint64_t seed = 20170529;
  std::vector<ModeResult> results;

  // --- scenario 1: price shock ---------------------------------------
  // The discounted silver cloud triples its price mid-horizon; the
  // market-aware broker reshops off it, the single cloud just pays.
  {
    const std::string scenario = "price-shock";
    PriceShock shock;
    shock.window = windows / 3;
    shock.duration = windows / 3;
    shock.factor = 3.0;

    MultiCloudSimConfig single = base_config(windows, servers);
    single.market = merged_single_cloud(servers * 3);
    results.push_back(run_mode(scenario, "single-cloud", single, seed));

    MultiCloudSimConfig cheapest = base_config(windows, servers);
    cheapest.market = three_provider_market(servers, windows);
    cheapest.market.providers[1].pricing.shocks = {shock};
    cheapest.broker.mode = BrokerMode::kCheapestFeasible;
    results.push_back(
        run_mode(scenario, "brokered/cheapest", cheapest, seed));

    MultiCloudSimConfig aware = cheapest;
    aware.broker.mode = BrokerMode::kMarketAware;
    aware.broker.backend = AlgorithmId::kNsga3Tabu;
    aware.broker.suite = reduced_ea_suite();
    results.push_back(run_mode(scenario, "brokered/market", aware, seed));
  }

  // --- scenario 2: provider outage -----------------------------------
  // The gold cloud goes dark for 3 windows mid-horizon and the bronze
  // cloud is decommissioned near the end: every hosted VM re-enters
  // through the broker, bounded by the per-VM redirect budget.
  {
    const std::string scenario = "provider-outage";
    std::vector<ProviderOutageScript> outages;
    ProviderOutageScript dark;
    dark.window = windows / 3;
    dark.provider = 0;
    dark.duration = 3;
    outages.push_back(dark);
    ProviderOutageScript gone;
    gone.window = 2 * windows / 3;
    gone.provider = 2;
    gone.duration = 1;
    gone.decommission = true;
    outages.push_back(gone);

    MultiCloudSimConfig single = base_config(windows, servers);
    single.market = merged_single_cloud(servers * 3);
    results.push_back(run_mode(scenario, "single-cloud", single, seed));

    MultiCloudSimConfig cheapest = base_config(windows, servers);
    cheapest.market = three_provider_market(servers, windows);
    cheapest.market.outages = outages;
    cheapest.broker.mode = BrokerMode::kCheapestFeasible;
    results.push_back(
        run_mode(scenario, "brokered/cheapest", cheapest, seed));

    MultiCloudSimConfig aware = cheapest;
    aware.broker.mode = BrokerMode::kMarketAware;
    aware.broker.backend = AlgorithmId::kNsga3Tabu;
    aware.broker.suite = reduced_ea_suite();
    results.push_back(run_mode(scenario, "brokered/market", aware, seed));
  }

  // --- part 3: warm-start front persistence (satellite ablation) -----
  {
    const std::string scenario = "warm-start";
    MultiCloudSimConfig cold = base_config(windows, servers);
    cold.market = three_provider_market(servers, windows);
    cold.broker.mode = BrokerMode::kMarketAware;
    cold.broker.backend = AlgorithmId::kNsga3Tabu;
    cold.broker.suite = reduced_ea_suite();
    cold.warm_start_front = false;
    results.push_back(run_mode(scenario, "front-off", cold, seed));

    MultiCloudSimConfig warm = cold;
    warm.warm_start_front = true;
    results.push_back(run_mode(scenario, "front-on", warm, seed));
  }

  // --- machine-readable roll-up --------------------------------------
  const std::string json_path =
      bench::csv_dir() + "/BENCH_multicloud.json";
  {
    std::string out;
    JsonEmitter e(out, 2);
    e.begin_object();
    e.key("bench");
    e.value("multicloud");
    e.key("servers_per_provider");
    e.value(static_cast<std::uint64_t>(servers));
    e.key("window_count");
    e.value(static_cast<std::uint64_t>(windows));
    e.key("results");
    e.begin_array();
    for (const ModeResult& r : results) {
      char digest[17];
      std::snprintf(digest, sizeof digest, "%016llx",
                    static_cast<unsigned long long>(r.stats.fingerprint));
      e.begin_object();
      e.key("scenario");
      e.value(r.scenario);
      e.key("mode");
      e.value(r.mode);
      e.key("acceptance_rate");
      e.value(r.stats.acceptance_rate());
      e.key("usage_cost");
      e.value(r.stats.usage_cost);
      e.key("downtime_cost");
      e.value(r.stats.downtime_cost);
      e.key("migration_cost");
      e.value(r.stats.migration_cost);
      e.key("cross_cloud_migration_cost");
      e.value(r.stats.cross_cloud_migration_cost);
      e.key("redirects");
      e.value(static_cast<std::uint64_t>(r.stats.redirects));
      e.key("permanently_rejected");
      e.value(static_cast<std::uint64_t>(r.stats.permanently_rejected));
      e.key("fingerprint");
      e.value(digest);
      e.key("trace_roundtrip_ok");
      e.value(r.trace_roundtrip_ok);
      e.end_object();
    }
    e.end_array();
    e.end_object();
    out += '\n';
    JsonFileSink sink(json_path);
    sink.write(out);
    sink.close();
    std::printf("\nWrote %s\n", json_path.c_str());
  }

  // --- structural acceptance checks ----------------------------------
  bool ok = true;
  for (const ModeResult& r : results) {
    const double accept = r.stats.acceptance_rate();
    if (accept < 0.0 || accept > 1.0) {
      std::printf("FAIL: %s/%s acceptance rate %.3f out of range\n",
                  r.scenario.c_str(), r.mode.c_str(), accept);
      ok = false;
    }
    if (!r.replay_identical) {
      std::printf("FAIL: %s/%s replay diverged\n", r.scenario.c_str(),
                  r.mode.c_str());
      ok = false;
    }
    if (!r.trace_roundtrip_ok) {
      std::printf("FAIL: %s/%s binary trace round trip changed the "
                  "fingerprint\n",
                  r.scenario.c_str(), r.mode.c_str());
      ok = false;
    }
    if (r.scenario == "provider-outage" && r.mode != "single-cloud" &&
        r.stats.offline_provider_windows == 0) {
      std::printf("FAIL: %s/%s saw no offline provider windows\n",
                  r.scenario.c_str(), r.mode.c_str());
      ok = false;
    }
  }
  // The outage scenario must actually exercise the broker's redirect
  // path in at least one brokered mode.
  std::size_t outage_redirects = 0;
  for (const ModeResult& r : results) {
    if (r.scenario == "provider-outage" && r.mode != "single-cloud") {
      outage_redirects += r.stats.redirects + r.stats.evicted;
    }
  }
  if (outage_redirects == 0) {
    std::printf("FAIL: provider outages displaced nothing\n");
    ok = false;
  }
  std::printf("\nstructural checks: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
