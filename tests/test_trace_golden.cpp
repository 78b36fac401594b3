// Golden trace fixtures (tests/data/traces, written by bench/trace_fixtures):
// the committed JSON and binary files pin both trace formats and the
// deterministic fingerprint.  Every fixture must parse to its pinned
// fingerprint, re-emit to its own bytes, and convert JSON <-> .trc byte
// for byte.  The field lists' tags are checked against the fingerprint
// leaf by leaf.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "io/json.h"
#include "io/trace_binary.h"
#include "io/trace_json.h"
#include "io/trace_stream.h"
#include "sim/simulator.h"

namespace iaas {
namespace {

const std::string kDir = IAAS_TRACE_FIXTURE_DIR;

std::string load_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct Pin {
  const char* name;
  std::uint64_t fingerprint;
};

constexpr Pin kSimFixtures[] = {
    {"all_blocks", 0x4bec7bd7bd1bfd66ULL},
    {"faulted", 0xe7209503a5050b4cULL},
    {"fallback", 0x14063c917d623cdcULL},
    {"admission", 0xd0f9aaf5c155f8ddULL},
    {"sharded_strategic", 0x165bc277016f8276ULL},
    {"brokered", 0xee2c9ef850fc95ecULL},
    {"market", 0x264129c2a6656e0aULL},
    {"cp", 0xc0f1c71f53638922ULL},
    {"nsga3_cp", 0xba0b73b777bcaf4eULL},
};

std::vector<WindowMetrics> load_fixture(const std::string& name) {
  return sim_trace_from_json(Json::parse(load_text(kDir + "/" + name +
                                                   ".json")));
}

TEST(TraceGolden, SimFixturesKeepTheirFingerprintsAndBytes) {
  for (const Pin& pin : kSimFixtures) {
    SCOPED_TRACE(pin.name);
    const std::string stem = kDir + "/" + pin.name;
    const std::string json = load_text(stem + ".json");
    const std::string trc = load_text(stem + ".trc");
    const std::vector<WindowMetrics> rows = load_fixture(pin.name);
    EXPECT_EQ(deterministic_fingerprint(rows), pin.fingerprint);

    // JSON -> binary reproduces the committed twin...
    const std::string out_trc = temp_path(std::string(pin.name) + ".trc");
    write_binary_sim_trace(rows, out_trc);
    EXPECT_EQ(load_text(out_trc), trc);
    // ...and binary -> JSON reproduces the committed JSON.
    const std::vector<WindowMetrics> reloaded =
        read_binary_sim_trace(stem + ".trc");
    EXPECT_EQ(deterministic_fingerprint(reloaded), pin.fingerprint);
    const std::string out_json = temp_path(std::string(pin.name) + ".json");
    write_sim_trace_json(reloaded, out_json);
    EXPECT_EQ(load_text(out_json), json);
    std::filesystem::remove(out_trc);
    std::filesystem::remove(out_json);
  }
}

TEST(TraceGolden, RunTraceKeepsSeedAbove2To53) {
  const std::string json = load_text(kDir + "/run_trace.json");
  const telemetry::RunTrace trace = trace_from_json(Json::parse(json));
  EXPECT_EQ(trace.seed, (std::uint64_t{1} << 63) + 12345);
  EXPECT_EQ(trace.rows.at(0).evaluations, (std::uint64_t{1} << 53) + 7);

  const std::string out_trc = temp_path("golden_run_trace.trc");
  write_binary_run_trace(trace, out_trc);
  EXPECT_EQ(load_text(out_trc), load_text(kDir + "/run_trace.trc"));
  const std::string out_json = temp_path("golden_run_trace.json");
  write_trace_json(read_binary_run_trace(kDir + "/run_trace.trc"), out_json);
  EXPECT_EQ(load_text(out_json), json);
  std::filesystem::remove(out_trc);
  std::filesystem::remove(out_json);
}

TEST(TraceGolden, FixturesCoverEveryBlockAndDegradeLevel) {
  bool faults = false, providers = false, admission = false, shard = false,
       fairness = false, trace = false, absent = false, best_effort = false,
       fallback = false, redirects = false, offline = false,
       permanent = false;
  for (const Pin& pin : kSimFixtures) {
    for (const WindowMetrics& w : load_fixture(pin.name)) {
      for (const FaultEvent& e : w.fault_events) {
        faults = faults || !e.servers.empty();
      }
      providers = providers || !w.providers.empty();
      admission = admission || w.admitted != 0;
      shard = shard || w.shard.shard_count != 0;
      fairness = fairness || w.fairness.consumers != 0;
      trace = trace || !w.allocator_trace.empty();
      absent = absent || (w.fault_events.empty() && w.providers.empty() &&
                          w.admitted == 0 && w.shard.shard_count == 0 &&
                          w.fairness.consumers == 0 &&
                          w.allocator_trace.empty());
      best_effort = best_effort || w.degrade == DegradeLevel::kBestEffort;
      fallback = fallback || w.degrade == DegradeLevel::kFallback;
      redirects = redirects || w.redirects != 0;
      offline = offline || w.offline_providers != 0;
      permanent = permanent || w.permanently_rejected != 0;
    }
  }
  EXPECT_TRUE(faults && providers && admission && shard && fairness &&
              trace && absent && best_effort && fallback);
  EXPECT_TRUE(redirects && offline && permanent);
}

// Visits a listed struct mutably and perturbs its n-th leaf (counting
// through every list, tuple, table and block), recording the leaf's key
// and tag.
class PerturbLeaf {
 public:
  explicit PerturbLeaf(std::size_t target) : target_(target) {}

  std::optional<fields::Tag> tag;  // unset: fewer than n+1 leaves
  std::string key;

  template <typename T, typename... Names>
  void leaf(const char* k, T& v, fields::Tag t, Names... names) {
    if (seen_++ != target_) {
      return;
    }
    tag = t;
    key = k;
    if constexpr (std::is_same_v<T, std::string>) {
      v += "x";
    } else if constexpr (std::is_same_v<T, bool>) {
      v = !v;
    } else if constexpr (std::is_enum_v<T>) {
      const int count = (static_cast<int>(names.last), ...) + 1;
      v = static_cast<T>((static_cast<int>(v) + 1) % count);
    } else if constexpr (std::is_floating_point_v<T>) {
      v = std::nextafter(v, INFINITY);
    } else {
      v = static_cast<T>(v + 1);
    }
  }

  template <typename T>
  void list(const char* k, std::vector<T>& items, fields::Tag t,
            bool = true) {
    for (T& item : items) {
      if constexpr (fields::Scalar<T>) {
        leaf(k, item, t);
      } else {
        visit_fields(item, *this);
      }
    }
  }

  template <typename S>
  void tuple(const char*, S& s) {
    visit_fields(s, *this);
  }

  template <typename Row>
  void table(const char*, const std::vector<std::string>&, const char*,
             std::vector<Row>& rows) {
    for (Row& row : rows) {
      visit_fields(row, *this);
    }
  }

  template <typename List>
  void block(const fields::Block&, bool, List&& list) {
    list(*this);
  }

 private:
  std::size_t target_;
  std::size_t seen_ = 0;
};

TEST(TraceGolden, FingerprintMovesExactlyForDeterministicLeaves) {
  const WindowMetrics full = load_fixture("all_blocks").at(0);
  ASSERT_FALSE(full.fault_events.at(0).servers.empty());
  ASSERT_FALSE(full.providers.empty());
  ASSERT_NE(full.admitted, 0u);
  ASSERT_NE(full.shard.shard_count, 0u);
  ASSERT_NE(full.fairness.consumers, 0u);
  ASSERT_FALSE(full.allocator_trace.empty());
  const std::uint64_t base = deterministic_fingerprint({full});

  std::size_t leaves = 0;
  std::set<std::string> unhashed;
  for (;; ++leaves) {
    std::vector<WindowMetrics> perturbed = {full};
    PerturbLeaf perturb(leaves);
    visit_fields(perturbed[0], perturb);
    if (!perturb.tag) {
      break;
    }
    const bool moved = deterministic_fingerprint(perturbed) != base;
    EXPECT_EQ(moved, *perturb.tag == fields::Tag::kDeterministic)
        << "leaf " << leaves << " (" << perturb.key << ")";
    if (!moved) {
      unhashed.insert(perturb.key);
    }
  }
  EXPECT_GT(leaves, 100u);
  const std::set<std::string> expected = {
      "solve_seconds",      "label",
      "seed",               "full_rebuilds",
      "delta_moves",        "rebases",
      "repair_invocations", "repaired",
      "unrepairable",       "tabu_moves_tried",
      "tabu_moves_accepted", "seconds_tournament",
      "seconds_variation",  "seconds_repair",
      "seconds_evaluate",   "seconds_selection"};
  EXPECT_EQ(unhashed, expected);
}

}  // namespace
}  // namespace iaas
