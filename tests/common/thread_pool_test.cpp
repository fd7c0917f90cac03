// Tests for the solver worker pool.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace gso {
namespace {

TEST(ThreadPool, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.parallelism(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  pool.ParallelFor(8, [&](int index) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(index);
  });
  // The caller runs everything, in index order.
  ASSERT_EQ(order.size(), 8u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i));
  }
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  // Each index writes a pure function of itself into its own slot, so the
  // result must be identical at every parallelism.
  constexpr int kCount = 1000;
  for (int parallelism : {1, 2, 4, 8}) {
    ThreadPool pool(parallelism);
    std::vector<std::atomic<int>> hits(kCount);
    std::vector<int64_t> out(kCount);
    pool.ParallelFor(kCount, [&](int index) {
      hits[static_cast<size_t>(index)].fetch_add(1, std::memory_order_relaxed);
      out[static_cast<size_t>(index)] = static_cast<int64_t>(index) * index + 7;
    });
    for (int i = 0; i < kCount; ++i) {
      const size_t slot = static_cast<size_t>(i);
      EXPECT_EQ(hits[slot].load(), 1) << "parallelism " << parallelism;
      EXPECT_EQ(out[slot], static_cast<int64_t>(i) * i + 7)
          << "parallelism " << parallelism;
    }
  }
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  // Back-to-back jobs of varying sizes: a stale worker waking late must
  // never steal indices from (or double-run) a later job.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    const int count = 1 + (round * 7) % 23;
    std::vector<std::atomic<int>> hits(static_cast<size_t>(count));
    std::atomic<int> total{0};
    pool.ParallelFor(count, [&](int index) {
      hits[static_cast<size_t>(index)].fetch_add(1,
                                                 std::memory_order_relaxed);
      total.fetch_add(index, std::memory_order_relaxed);
    });
    int expected = 0;
    for (int i = 0; i < count; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
          << "round " << round << " index " << i;
      expected += i;
    }
    EXPECT_EQ(total.load(), expected) << "round " << round;
  }
}

TEST(ThreadPool, ZeroAndNegativeCountsAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](int) { ++calls; });
  pool.ParallelFor(-5, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, MorePoolThreadsThanIndices) {
  // Workers that find no index left must still ack so the caller returns.
  ThreadPool pool(8);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(2, [&](int index) {
      total.fetch_add(index + 1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 50 * 3);
}

}  // namespace
}  // namespace gso
