// A small fixed-size worker pool with a blocking, allocation-free
// parallel-for over an index range.
//
// Used by the orchestration service: each shard drains its batched solve
// queue across one pool, one conference solve per index. Solves differ
// widely in cost, so indices are handed out one at a time through a single
// atomic counter (dynamic balancing, low indices first). Every index writes
// only its own state, so results never depend on which thread ran it.
//
// Zero per-call allocation: dispatch goes through a non-owning trampoline
// (function pointer + context pointer into the caller's frame) and a single
// persistent job slot, not a heap-allocated job or std::function.
//
// Lifecycle safety without per-job ownership: the caller publishes a job
// under the mutex (bumping the epoch), drains indices itself, then blocks
// until every worker has acknowledged that epoch. A worker that is
// descheduled mid-index simply delays completion of the current epoch; the
// next job cannot be published until every worker has acked the previous
// one, so a stale worker can never touch a later job's counter. Workers
// spin briefly before sleeping so back-to-back jobs do not pay a futex
// round-trip each.
#ifndef GSO_COMMON_THREAD_POOL_H_
#define GSO_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gso {

class ThreadPool {
 public:
  explicit ThreadPool(int parallelism)
      : parallelism_(parallelism < 1 ? 1 : parallelism),
        acks_(static_cast<size_t>(parallelism_ > 1 ? parallelism_ - 1 : 0)) {
    workers_.reserve(acks_.size());
    for (int w = 1; w < parallelism_; ++w) {
      workers_.emplace_back([this, w] { WorkerLoop(w); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_.store(true, std::memory_order_relaxed);
    }
    work_cv_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  int parallelism() const { return parallelism_; }

  // Invokes fn(index) for every index in [0, count), spreading indices
  // across the caller and the workers; blocks until all calls returned.
  // The callable is borrowed for the duration of the call — no copy, no
  // allocation. Not reentrant: one ParallelFor at a time per pool.
  template <typename Fn>
  void ParallelFor(int count, Fn&& fn) {
    Run(count,
        [](void* ctx, int index) {
          (*static_cast<std::remove_reference_t<Fn>*>(ctx))(index);
        },
        &fn);
  }

 private:
  using IndexFn = void (*)(void* ctx, int index);

  // Padded per-worker ack slot: workers publish the last epoch they have
  // fully drained; false sharing here would serialize the completion path.
  struct alignas(64) AckSlot {
    std::atomic<uint64_t> epoch{0};
  };

  void Run(int count, IndexFn invoke, void* ctx) {
    if (count <= 0) return;
    if (parallelism_ == 1 || count == 1) {
      for (int i = 0; i < count; ++i) invoke(ctx, i);
      return;
    }
    invoke_ = invoke;
    ctx_ = ctx;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    uint64_t epoch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      epoch = epoch_.fetch_add(1, std::memory_order_release) + 1;
    }
    work_cv_.notify_all();
    Drain();
    // Wait (spin, then sleep) for every worker to ack this epoch. Workers
    // that find no indices left ack immediately, so this is cheap even
    // when the caller drained everything itself.
    for (int spin = 0; spin < kSpinIterations; ++spin) {
      if (AllAcked(epoch)) return;
    }
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return AllAcked(epoch); });
  }

  bool AllAcked(uint64_t epoch) const {
    for (const AckSlot& slot : acks_) {
      if (slot.epoch.load(std::memory_order_acquire) < epoch) return false;
    }
    return true;
  }

  void Drain() {
    const int count = count_;
    int index;
    while ((index = next_.fetch_add(1, std::memory_order_relaxed)) < count) {
      invoke_(ctx_, index);
    }
  }

  void WorkerLoop(int worker) {
    uint64_t seen = 0;
    for (;;) {
      uint64_t current = epoch_.load(std::memory_order_acquire);
      for (int spin = 0; spin < kSpinIterations && current == seen; ++spin) {
        if (stop_.load(std::memory_order_relaxed)) return;
        current = epoch_.load(std::memory_order_acquire);
      }
      if (current == seen) {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] {
          return stop_.load(std::memory_order_relaxed) ||
                 epoch_.load(std::memory_order_acquire) != seen;
        });
        if (stop_.load(std::memory_order_relaxed)) return;
        current = epoch_.load(std::memory_order_acquire);
      }
      seen = current;
      Drain();
      acks_[static_cast<size_t>(worker - 1)].epoch.store(
          seen, std::memory_order_release);
      {
        // Empty critical section orders the ack with the caller's wait.
        std::lock_guard<std::mutex> lock(mu_);
      }
      done_cv_.notify_all();
    }
  }

  static constexpr int kSpinIterations = 4000;

  const int parallelism_;
  std::vector<AckSlot> acks_;
  std::vector<std::thread> workers_;

  // Current job; valid only between epoch publication and the last ack.
  IndexFn invoke_ = nullptr;
  void* ctx_ = nullptr;
  int count_ = 0;
  std::atomic<int> next_{0};
  std::atomic<uint64_t> epoch_{0};

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::atomic<bool> stop_{false};
};

}  // namespace gso

#endif  // GSO_COMMON_THREAD_POOL_H_
