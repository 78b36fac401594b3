// Bounded retry queue with per-VM exponential backoff.
//
// Rejected or evicted requests used to leave the platform silently; real
// consumers resubmit.  Each failed placement attempt parks the VM for
// `backoff_base_windows << (attempts-1)` windows (capped), and a VM whose
// attempt budget is exhausted is rejected permanently — the bounded part
// that keeps a hopeless request from circulating forever.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "model/vm_request.h"

namespace iaas {

struct RetryPolicy {
  // Total placement attempts a VM may consume (its arrival is attempt 1).
  // 0 disables retries: every rejection is immediately permanent.
  std::size_t max_attempts = 0;
  std::size_t backoff_base_windows = 1;
  std::size_t backoff_cap_windows = 8;
};

struct RetryEntry {
  VmRequest vm;
  std::size_t attempts = 0;      // failed placements so far (>= 1)
  std::size_t ready_window = 0;  // earliest window it may re-enter
  // Cross-cloud redirections so far (multi-cloud broker: outage
  // evictions, rejections re-routed to another provider, reshops).
  // Single-cloud simulations leave it 0.
  std::size_t redirects = 0;
  // Provider that last hosted (or rejected) the VM, for egress pricing
  // when it lands elsewhere; -1 = fresh arrival / single-cloud.
  std::int32_t home_provider = -1;
};

class RetryQueue {
 public:
  explicit RetryQueue(RetryPolicy policy) : policy_(policy) {}

  // Backoff for a VM that has failed `attempts` times (>= 1).
  [[nodiscard]] std::size_t backoff_windows(std::size_t attempts) const;

  // `vm` failed its `attempts`-th placement during `window`.  Queues it
  // for window + backoff and returns true, or returns false when the
  // attempt budget is spent (permanent rejection; the VM is dropped).
  // `redirects` and `home_provider` are carried through unchanged for
  // the broker's cross-cloud redirect budget and egress pricing.
  bool offer(VmRequest vm, std::size_t attempts, std::size_t window,
             std::size_t redirects = 0, std::int32_t home_provider = -1);

  // Entries whose backoff has elapsed by `window`, in FIFO order (stable
  // across identical runs — the simulator's determinism depends on it).
  std::vector<RetryEntry> pop_due(std::size_t window);

  [[nodiscard]] std::size_t size() const { return queue_.size(); }
  [[nodiscard]] const RetryPolicy& policy() const { return policy_; }

 private:
  RetryPolicy policy_;
  std::deque<RetryEntry> queue_;
};

}  // namespace iaas
