#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <new>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace iaas {
namespace {

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  auto f = pool.submit([&] { value = 42; });
  f.get();
  EXPECT_EQ(value, 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  pool.parallel_for(7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForOffsetRange) {
  ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(10, 20, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 145u);  // 10 + ... + 19
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t i) {
                                   if (i == 37) {
                                     throw std::logic_error("bad index");
                                   }
                                 }),
               std::logic_error);
}

TEST(ThreadPool, ParallelForWorksWithSingleWorker) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(0, 10, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  // Single worker + calling thread both drain chunks; every index present.
  std::sort(order.begin(), order.end());
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ParallelForAbandonsUnclaimedChunksAfterException) {
  ThreadPool pool(2);
  // Index 0 (first chunk) throws immediately; every other iteration
  // stalls briefly, so chunks in flight when the abort flag goes up
  // finish but the many remaining chunks are never claimed.
  std::atomic<std::size_t> executed{0};
  const std::size_t total = 120;  // 8 chunks of 15 with 2 workers
  EXPECT_THROW(
      pool.parallel_for(0, total,
                        [&](std::size_t i) {
                          if (i == 0) {
                            throw std::runtime_error("first");
                          }
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(1));
                          executed.fetch_add(1);
                        }),
      std::runtime_error);
  // At most the chunks claimed by the (workers + caller) participants
  // before the abort became visible can have run.
  EXPECT_LT(executed.load(), total);
}

TEST(ThreadPool, UsableAfterParallelForException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   0, 10, [](std::size_t) { throw std::bad_alloc(); }),
               std::bad_alloc);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(0, 10, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 45u);
  auto f = pool.submit([&] { sum = 0; });
  f.get();
  EXPECT_EQ(sum.load(), 0u);
}

TEST(ThreadPool, ExceptionOnCallerThreadChunkPropagates) {
  // With one worker and two chunks, the calling thread drains one of
  // them itself; whichever side throws, the caller must see it.
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(0, 8,
                                 [](std::size_t) {
                                   throw std::runtime_error("everywhere");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForFromMultipleThreadsConcurrently) {
  // Two client threads driving disjoint parallel_for calls over one pool
  // (the pattern of several NSGA engines sharing ThreadPool::shared()).
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(400);
  auto client = [&](std::size_t lo, std::size_t hi) {
    pool.parallel_for(lo, hi, [&](std::size_t i) { hits[i].fetch_add(1); });
  };
  std::thread first(client, 0, 200);
  std::thread second(client, 200, 400);
  first.join();
  second.join();
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
}

TEST(ThreadPool, SlotsCoverEveryIndexAndStayBounded) {
  // parallel_for_slots promises slot < size(): at most one participant
  // per worker (the caller stands in for one of them).
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(500);
  std::atomic<bool> bad_slot{false};
  pool.parallel_for_slots(0, hits.size(),
                          [&](std::size_t slot, std::size_t i) {
                            if (slot >= pool.size()) {
                              bad_slot = true;
                            }
                            hits[i].fetch_add(1);
                          });
  EXPECT_FALSE(bad_slot.load());
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, SlotsAreExclusivePerParticipant) {
  // A participant claims its slot once and keeps it for every chunk it
  // drains — so a slot is only ever touched by one thread, which is what
  // lets the NSGA engines index per-slot arenas without locking.
  ThreadPool pool(3);
  std::mutex mu;
  std::map<std::size_t, std::thread::id> owner_of_slot;
  std::atomic<bool> conflict{false};
  pool.parallel_for_slots(0, 300, [&](std::size_t slot, std::size_t) {
    std::lock_guard lock(mu);
    const auto [it, inserted] =
        owner_of_slot.emplace(slot, std::this_thread::get_id());
    if (!inserted && it->second != std::this_thread::get_id()) {
      conflict = true;
    }
  });
  EXPECT_FALSE(conflict.load());
  EXPECT_LE(owner_of_slot.size(), pool.size());
}

TEST(ThreadPool, SlotsRunSizeBodiesAtOnce) {
  // A pool of s workers engages s participants (the caller and s - 1
  // workers), so s bodies that each wait for all s to arrive finish.
  // Callers size their pools by this, e.g. one worker per concurrent
  // shard.  A missing participant shows as a timeout, not a hang.
  for (const std::size_t size : {1u, 2u, 3u, 4u}) {
    ThreadPool pool(size);
    std::mutex mu;
    std::condition_variable all_in;
    std::size_t arrived = 0;
    std::atomic<std::size_t> timed_out{0};
    pool.parallel_for_slots(0, size, [&](std::size_t, std::size_t) {
      std::unique_lock lock(mu);
      ++arrived;
      all_in.notify_all();
      if (!all_in.wait_for(lock, std::chrono::seconds(20),
                           [&] { return arrived == size; })) {
        ++timed_out;
      }
    });
    EXPECT_EQ(timed_out.load(), 0u) << "pool of " << size;
  }
}

TEST(ThreadPool, ManySmallParallelForCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 8, [&](std::size_t) { ++count; });
    ASSERT_EQ(count.load(), 8);
  }
}

}  // namespace
}  // namespace iaas
