// Fixed-size worker pool with a blocking task queue and chunked
// parallel_for helpers.  Used to evaluate EA populations in parallel
// (objective evaluation is independent per individual) and to run
// benchmark repetitions concurrently.
//
// parallel_for dispatches *chunks* of consecutive indices, never one task
// per index: a chunk is claimed with a single atomic fetch-add and run to
// completion by one participant, so tiny per-index bodies (a few
// microseconds of offspring variation) amortize the queue round-trip.
// The chunk size is `ceil(total / min(total, 4 * workers))`: ~4 chunks
// per worker.
//
// The slot-aware variant additionally hands every participating thread a
// stable *slot index* in [0, size()): a participant drains chunks
// serially, so per-slot caller state ("arenas": placement state, gene
// buffers) needs no locking — the foundation of the EA's thread-affine
// PlacementState arenas (DESIGN.md §8).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace iaas {

class ThreadPool {
 public:
  // threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  // Enqueue an arbitrary task; the future observes completion/exception.
  std::future<void> submit(std::function<void()> task);

  // Run fn(i) for i in [begin, end) across the pool, blocking until all
  // iterations finish.  Iterations are chunked to limit queue traffic
  // (~4 chunks per worker).  Exceptions from fn propagate to the caller
  // (first one wins) and chunks not yet claimed when it was thrown are
  // abandoned.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  // Slot-aware variant: fn(slot, i) where `slot` identifies the
  // participating thread (0 <= slot < size()).  Each slot is claimed by
  // exactly one participant for the whole call and a participant runs its
  // chunks serially, so fn may freely mutate caller state indexed by
  // slot.  Same chunking and exception semantics as above.
  void parallel_for_slots(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& fn);

  // Process-wide shared pool for callers that do not manage their own.
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace iaas
