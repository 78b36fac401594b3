#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/expect.h"

namespace iaas {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    std::lock_guard lock(mutex_);
    IAAS_EXPECT(!stopping_, "submit on stopped ThreadPool");
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::parallel_for_slots(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) {
    return;
  }
  const std::size_t total = end - begin;
  // ~4 chunks per worker balances load without flooding the queue.
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min(total, workers_.size() * 4));
  const std::size_t chunk_size = (total + chunks - 1) / chunks;

  std::atomic<std::size_t> next{begin};
  std::atomic<std::size_t> next_slot{0};
  std::atomic<bool> aborted{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto drain = [&] {
    // One slot per participating thread, claimed on entry and held for
    // every chunk this participant drains.  At most size() participants
    // exist (the caller stands in for one worker), so slot < size().
    const std::size_t slot = next_slot.fetch_add(1);
    for (;;) {
      if (aborted.load(std::memory_order_relaxed)) {
        return;
      }
      const std::size_t lo = next.fetch_add(chunk_size);
      if (lo >= end) {
        return;
      }
      const std::size_t hi = std::min(lo + chunk_size, end);
      try {
        for (std::size_t i = lo; i < hi; ++i) {
          fn(slot, i);
        }
      } catch (...) {
        {
          std::lock_guard lock(error_mutex);
          if (!first_error) {
            first_error = std::current_exception();
          }
        }
        // Abandon chunks not yet claimed — a failed parallel_for should
        // stop scheduling work, not run the remaining iterations to
        // completion behind the caller's back.
        aborted.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::future<void>> futures;
  futures.reserve(workers_.size());
  for (std::size_t w = 1; w < workers_.size(); ++w) {
    futures.push_back(submit(drain));
  }
  drain();  // the calling thread participates
  for (auto& f : futures) {
    f.get();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_slots(begin, end,
                     [&fn](std::size_t, std::size_t i) { fn(i); });
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) {
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace iaas
