// Topology-correlated platform failures with a full lifecycle.
//
// The paper defers "platform failures" to future work while pricing
// their consequences today (downtime cost Eq. 23-25, migration cost
// Eq. 26).  This model supplies the missing events: servers fail and are
// *repaired* after an MTTR measured in windows (or are decommissioned
// permanently), and failures are correlated through the Fig. 1 fabric —
// a leaf-switch outage takes down every server on its rack at once, not
// just independent per-server coin flips.  Scripted faults let tests and
// benches inject an exact scenario (e.g. "rack 0 dies at window 5 with
// MTTR 3") deterministically.
#pragma once

#include <cstdint>
#include <vector>

#include "common/fields.h"
#include "common/rng.h"
#include "topology/fabric.h"

namespace iaas {

// One deterministic, pre-planned fault (applied in `advance(window)`
// before any random injection).
struct ScriptedFault {
  std::size_t window = 0;
  bool leaf_level = false;    // true: whole rack (global leaf index)
  std::uint32_t index = 0;    // global server index, or global leaf index
  std::size_t mttr_windows = 1;
  bool decommission = false;  // never repaired
};

struct FaultConfig {
  // Per-window Bernoulli rates, each in [0, 1] (FaultModel refuses NaN
  // and anything outside).  Server failures hit healthy servers
  // independently; leaf failures hit a whole rack through the fabric.
  double server_failure_probability = 0.0;
  double leaf_failure_probability = 0.0;
  // Repair time (windows down) drawn uniformly from [min, max]; both 1
  // reproduces the legacy single-window transient.
  std::size_t mttr_min_windows = 1;
  std::size_t mttr_max_windows = 1;
  // Probability that a random failure is permanent (hardware loss):
  // the server never returns to the pool.
  double decommission_probability = 0.0;

  std::vector<ScriptedFault> scripted;
};

enum class FaultEventKind : std::uint8_t {
  kServerFailure,  // one server down (random or scripted)
  kLeafFailure,    // rack down: every hosted server fails together
  kRepair,         // a server returned to service
  kDecommission,   // a server left the pool permanently
};

const char* fault_event_kind_name(FaultEventKind kind);

struct FaultEvent {
  std::size_t window = 0;
  FaultEventKind kind = FaultEventKind::kServerFailure;
  std::uint32_t index = 0;  // server index (leaf index for kLeafFailure)
  std::vector<std::uint32_t> servers;  // affected servers (repairs: one)
  std::size_t mttr_windows = 0;        // failures only; 0 = permanent

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

template <fields::Of<FaultEvent> Self, typename V>
void visit_fields(Self& e, V& v) {
  using enum fields::Tag;
  v.leaf("window", e.window, kDeterministic);
  v.leaf("kind", e.kind, kDeterministic,
         fields::Names<FaultEventKind>{fault_event_kind_name,
                                       FaultEventKind::kDecommission});
  v.leaf("index", e.index, kDeterministic);
  v.list("servers", e.servers, kDeterministic);
  v.leaf("mttr_windows", e.mttr_windows, kDeterministic);
}

class FaultModel {
 public:
  // `fabric` must outlive the model.  All randomness flows from `seed`;
  // identical (config, fabric, seed) triples replay identical histories.
  FaultModel(FaultConfig config, const Fabric& fabric, std::uint64_t seed);

  // One window tick: repairs due this window come back first (a server
  // failing again in the same window is a fresh event), then scripted
  // faults, then random leaf outages, then random server failures.
  // Returns the window's events in that deterministic order.
  std::vector<FaultEvent> advance(std::size_t window);

  [[nodiscard]] bool is_down(std::uint32_t server) const;
  [[nodiscard]] std::size_t down_count() const;
  [[nodiscard]] std::size_t decommissioned_count() const;
  [[nodiscard]] std::size_t server_count() const { return state_.size(); }

  [[nodiscard]] const FaultConfig& config() const { return config_; }

 private:
  // Marks `server` down until `window + mttr` (or forever), recording the
  // per-server state; returns false when the server was already down
  // (the event is then not double-counted).
  bool fail_server(std::uint32_t server, std::size_t window,
                   std::size_t mttr_windows, bool decommission);
  std::size_t draw_mttr();

  static constexpr std::size_t kHealthy = 0;
  static constexpr std::size_t kDecommissioned =
      static_cast<std::size_t>(-1);

  FaultConfig config_;
  const Fabric* fabric_;
  Rng rng_;
  // Per server: kHealthy, kDecommissioned, or the first window it is
  // healthy again (repair window), offset by +1 so window 0 is usable.
  std::vector<std::size_t> state_;
  std::size_t down_ = 0;
  std::size_t decommissioned_ = 0;
};

}  // namespace iaas
