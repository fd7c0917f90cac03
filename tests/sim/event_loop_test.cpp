// Tests for the discrete-event loop: ordering, owners, and a differential
// test against a frozen copy of the heap-of-closures loop the slot slab
// replaced.
#include "sim/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace gso::sim {
namespace {

TEST(EventLoop, RunsEventsInTimestampOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.At(Timestamp::Millis(30), [&] { order.push_back(3); });
  loop.At(Timestamp::Millis(10), [&] { order.push_back(1); });
  loop.At(Timestamp::Millis(20), [&] { order.push_back(2); });
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, TiesAreFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.At(Timestamp::Millis(5), [&, i] { order.push_back(i); });
  }
  loop.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoop, ClockAdvancesToEventTime) {
  EventLoop loop;
  Timestamp seen;
  loop.At(Timestamp::Millis(123), [&] { seen = loop.Now(); });
  loop.RunAll();
  EXPECT_EQ(seen, Timestamp::Millis(123));
}

TEST(EventLoop, RunUntilStopsAtBoundary) {
  EventLoop loop;
  int fired = 0;
  loop.At(Timestamp::Millis(10), [&] { ++fired; });
  loop.At(Timestamp::Millis(30), [&] { ++fired; });
  loop.RunUntil(Timestamp::Millis(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.Now(), Timestamp::Millis(20));
  loop.RunUntil(Timestamp::Millis(40));
  EXPECT_EQ(fired, 2);
}

TEST(EventLoop, PastEventsClampToNow) {
  EventLoop loop;
  loop.RunUntil(Timestamp::Millis(100));
  bool fired = false;
  loop.At(Timestamp::Millis(10), [&] {
    fired = true;
    EXPECT_EQ(loop.Now(), Timestamp::Millis(100));
  });
  loop.RunAll();
  EXPECT_TRUE(fired);
}

TEST(EventLoop, AfterSchedulesRelative) {
  EventLoop loop;
  loop.RunUntil(Timestamp::Millis(50));
  Timestamp seen;
  loop.After(TimeDelta::Millis(25), [&] { seen = loop.Now(); });
  loop.RunAll();
  EXPECT_EQ(seen, Timestamp::Millis(75));
}

TEST(EventLoop, EveryRepeatsUntilFalse) {
  EventLoop loop;
  int count = 0;
  loop.Every(TimeDelta::Millis(10), [&] { return ++count < 5; });
  loop.RunUntil(Timestamp::Seconds(1));
  EXPECT_EQ(count, 5);
}

TEST(EventLoop, EventsScheduledDuringRunExecute) {
  EventLoop loop;
  std::vector<int> order;
  loop.At(Timestamp::Millis(10), [&] {
    order.push_back(1);
    loop.At(Timestamp::Millis(15), [&] { order.push_back(2); });
  });
  loop.RunUntil(Timestamp::Millis(20));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoop, RunForAdvancesRelative) {
  EventLoop loop;
  loop.RunFor(TimeDelta::Millis(10));
  loop.RunFor(TimeDelta::Millis(15));
  EXPECT_EQ(loop.Now(), Timestamp::Millis(25));
}

TEST(EventLoop, FifoSurvivesInterleavedScheduling) {
  // Regression for the explicit-heap rewrite: FIFO order among equal
  // timestamps must hold even when insertions interleave with pops and
  // other timestamps, which exercises heap sift-up/down paths.
  EventLoop loop;
  std::vector<int> order;
  loop.At(Timestamp::Millis(20), [&] { order.push_back(100); });
  for (int i = 0; i < 5; ++i) {
    loop.At(Timestamp::Millis(10), [&, i] { order.push_back(i); });
  }
  loop.At(Timestamp::Millis(5), [&] {
    order.push_back(50);
    // Scheduled mid-run at an already-populated timestamp: runs after the
    // five existing t=10 events.
    loop.At(Timestamp::Millis(10), [&] { order.push_back(5); });
  });
  for (int i = 5; i < 8; ++i) {
    loop.At(Timestamp::Millis(10), [&, i] { order.push_back(i + 1); });
  }
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{50, 0, 1, 2, 3, 4, 6, 7, 8, 5, 100}));
}

TEST(EventLoop, FifoHoldsAtScale) {
  // Hundreds of ties at a handful of timestamps, drained in stages.
  EventLoop loop;
  std::vector<std::pair<int, int>> order;  // (timestamp bucket, seq)
  for (int i = 0; i < 300; ++i) {
    const int bucket = i % 3;
    loop.At(Timestamp::Millis(10 * (bucket + 1)),
            [&, bucket, i] { order.emplace_back(bucket, i); });
  }
  loop.RunUntil(Timestamp::Millis(15));
  loop.RunAll();
  ASSERT_EQ(order.size(), 300u);
  int last_bucket = -1;
  std::vector<int> last_seq(3, -1);
  for (const auto& [bucket, seq] : order) {
    EXPECT_GE(bucket, last_bucket);  // timestamp order
    last_bucket = bucket;
    EXPECT_GT(seq, last_seq[static_cast<size_t>(bucket)]);  // FIFO in bucket
    last_seq[static_cast<size_t>(bucket)] = seq;
  }
}

TEST(EventLoop, TaskStateSurvivesHeapMoves) {
  // The heap rewrite moves events within and out of the container; closure
  // state must survive the round trip even when many later insertions
  // reshuffle the heap around an already-scheduled event.
  EventLoop loop;
  auto payload = std::make_shared<int>(42);
  std::weak_ptr<int> watch = payload;
  int seen = 0;
  loop.At(Timestamp::Millis(100),
          [&seen, p = std::move(payload)] { seen = *p; });
  for (int i = 0; i < 64; ++i) {
    loop.At(Timestamp::Millis(i), [] {});
  }
  EXPECT_FALSE(watch.expired());  // the queued task owns the payload
  loop.RunAll();
  EXPECT_EQ(seen, 42);
  EXPECT_TRUE(watch.expired());  // task destroyed after running
}

TEST(EventLoop, PendingCountAndEmpty) {
  EventLoop loop;
  EXPECT_TRUE(loop.empty());
  loop.At(Timestamp::Millis(1), [] {});
  loop.At(Timestamp::Millis(2), [] {});
  EXPECT_EQ(loop.pending_events(), 2u);
  loop.RunAll();
  EXPECT_TRUE(loop.empty());
}


// --- Owner-scoped cancellation (service mode) ----------------------------

TEST(EventLoopOwners, CancelSkipsQueuedTasks) {
  EventLoop loop;
  const uint64_t owner = loop.NewOwner();
  int owned_runs = 0;
  int other_runs = 0;
  {
    EventLoop::OwnerScope scope(&loop, owner);
    loop.At(Timestamp::Millis(10), [&] { ++owned_runs; });
    loop.At(Timestamp::Millis(20), [&] { ++owned_runs; });
  }
  loop.At(Timestamp::Millis(15), [&] { ++other_runs; });
  loop.Cancel(owner);
  loop.RunAll();
  EXPECT_EQ(owned_runs, 0);
  EXPECT_EQ(other_runs, 1);
}

TEST(EventLoopOwners, CancelDropsFutureScheduling) {
  EventLoop loop;
  const uint64_t owner = loop.NewOwner();
  loop.Cancel(owner);
  int runs = 0;
  {
    EventLoop::OwnerScope scope(&loop, owner);
    loop.At(Timestamp::Millis(1), [&] { ++runs; });
  }
  EXPECT_TRUE(loop.empty());  // dropped at scheduling time
  loop.RunAll();
  EXPECT_EQ(runs, 0);
}

TEST(EventLoopOwners, TasksInheritOwnerOfTheirScheduler) {
  // A periodic timer started under an owner keeps that owner through every
  // reschedule, so Cancel() kills the whole chain.
  EventLoop loop;
  const uint64_t owner = loop.NewOwner();
  int ticks = 0;
  {
    EventLoop::OwnerScope scope(&loop, owner);
    loop.Every(TimeDelta::Millis(10), [&] {
      ++ticks;
      return true;
    });
  }
  loop.RunUntil(Timestamp::Millis(35));
  EXPECT_EQ(ticks, 3);
  loop.Cancel(owner);
  loop.RunUntil(Timestamp::Millis(100));
  EXPECT_EQ(ticks, 3);  // the chain died with its owner
}

TEST(EventLoopOwners, ScopesNestAndRestore) {
  EventLoop loop;
  const uint64_t outer = loop.NewOwner();
  const uint64_t inner = loop.NewOwner();
  EXPECT_EQ(loop.current_owner(), 0u);
  {
    EventLoop::OwnerScope a(&loop, outer);
    EXPECT_EQ(loop.current_owner(), outer);
    {
      EventLoop::OwnerScope b(&loop, inner);
      EXPECT_EQ(loop.current_owner(), inner);
    }
    EXPECT_EQ(loop.current_owner(), outer);
  }
  EXPECT_EQ(loop.current_owner(), 0u);
}

TEST(EventLoopOwners, OwnerZeroIsNeverCancelled) {
  EventLoop loop;
  loop.Cancel(0);  // no-op by contract
  int runs = 0;
  loop.At(Timestamp::Millis(1), [&] { ++runs; });
  loop.RunAll();
  EXPECT_EQ(runs, 1);
}

TEST(EventLoopOwners, CancelOneOwnerAmongInterleaved) {
  // Two components interleaved on one loop: cancelling one must not
  // disturb the other's ordering or delivery.
  EventLoop loop;
  const uint64_t a = loop.NewOwner();
  const uint64_t b = loop.NewOwner();
  std::vector<int> ran;
  for (int i = 0; i < 10; ++i) {
    EventLoop::OwnerScope scope(&loop, i % 2 == 0 ? a : b);
    loop.At(Timestamp::Millis(i), [&ran, i] { ran.push_back(i); });
  }
  loop.Cancel(a);
  loop.RunAll();
  EXPECT_EQ(ran, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(EventLoopOwners, PurgeDropsCancelledEventsAndRecyclesIds) {
  EventLoop loop;
  const uint64_t doomed = loop.NewOwner();
  const uint64_t kept = loop.NewOwner();
  std::vector<int> ran;
  {
    EventLoop::OwnerScope scope(&loop, doomed);
    for (int i = 0; i < 100; ++i) {
      loop.At(Timestamp::Millis(10 + i), [&ran] { ran.push_back(-1); });
    }
  }
  {
    EventLoop::OwnerScope scope(&loop, kept);
    loop.At(Timestamp::Millis(15), [&ran] { ran.push_back(1); });
    loop.At(Timestamp::Millis(5), [&ran] { ran.push_back(0); });
  }
  loop.Cancel(doomed);
  const size_t before = loop.pending_events();
  loop.PurgeCancelled();
  // The cancelled owner's events leave the heap instead of waiting to be
  // skipped at pop, and its id goes back into circulation.
  EXPECT_EQ(loop.pending_events(), before - 100);
  const uint64_t recycled = loop.NewOwner();
  EXPECT_EQ(recycled, doomed);
  {
    EventLoop::OwnerScope scope(&loop, recycled);
    loop.At(Timestamp::Millis(20), [&ran] { ran.push_back(2); });
  }
  loop.RunAll();
  // Survivors run in time order and the recycled owner is live again.
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2}));
}

// A periodic task that cancels its own owner stops: it is not re-armed
// even though it returned true.
TEST(EventLoopOwners, PeriodicTaskCancellingItsOwnerStops) {
  EventLoop loop;
  const uint64_t owner = loop.NewOwner();
  int ticks = 0;
  {
    EventLoop::OwnerScope scope(&loop, owner);
    loop.Every(TimeDelta::Millis(10), [&] {
      if (++ticks == 3) loop.Cancel(owner);
      return true;
    });
  }
  loop.RunUntil(Timestamp::Seconds(1));
  EXPECT_EQ(ticks, 3);
  EXPECT_TRUE(loop.empty());
}

// A periodic task's closure state lives across its periods.
TEST(EventLoop, EveryKeepsClosureStateAcrossPeriods) {
  EventLoop loop;
  std::vector<int> seen;
  loop.Every(TimeDelta::Millis(5), [&seen, n = 0]() mutable {
    seen.push_back(++n);
    return n < 4;
  });
  loop.RunAll();
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 4}));
}

// --- Differential test against the heap-of-closures loop -----------------
//
// Frozen copy of EventLoop before tasks moved into a slot slab: the heap
// held whole events, each with its std::function, and Every() rescheduled
// itself through a wrapper closure after each run.
class ClosureHeapLoop {
 public:
  using Task = std::function<void()>;

  Timestamp Now() const { return now_; }

  uint64_t NewOwner() {
    if (!free_owners_.empty()) {
      const uint64_t owner = free_owners_.back();
      free_owners_.pop_back();
      return owner;
    }
    return next_owner_++;
  }

  class OwnerScope {
   public:
    OwnerScope(ClosureHeapLoop* loop, uint64_t owner)
        : loop_(loop), previous_(loop->current_owner_) {
      loop_->current_owner_ = owner;
    }
    ~OwnerScope() { loop_->current_owner_ = previous_; }
    OwnerScope(const OwnerScope&) = delete;
    OwnerScope& operator=(const OwnerScope&) = delete;

   private:
    ClosureHeapLoop* loop_;
    uint64_t previous_;
  };

  void Cancel(uint64_t owner) {
    if (owner == 0) return;
    if (cancelled_.size() <= owner) cancelled_.resize(owner + 1, 0);
    cancelled_[owner] = 1;
  }

  bool IsCancelled(uint64_t owner) const {
    return owner < cancelled_.size() && cancelled_[owner] != 0;
  }

  void PurgeCancelled() {
    bool any = false;
    for (uint64_t owner = 1; owner < cancelled_.size(); ++owner) {
      if (cancelled_[owner] != 0) {
        any = true;
        break;
      }
    }
    if (!any) return;
    std::erase_if(queue_,
                  [this](const Event& ev) { return IsCancelled(ev.owner); });
    std::make_heap(queue_.begin(), queue_.end(), Event::Later{});
    for (uint64_t owner = 1; owner < cancelled_.size(); ++owner) {
      if (cancelled_[owner] != 0) {
        cancelled_[owner] = 0;
        free_owners_.push_back(owner);
      }
    }
  }

  uint64_t current_owner() const { return current_owner_; }

  bool At(Timestamp when, Task task) {
    if (IsCancelled(current_owner_)) return false;
    if (when < now_) when = now_;
    queue_.push_back(Event{when, next_seq_++, current_owner_, std::move(task)});
    std::push_heap(queue_.begin(), queue_.end(), Event::Later{});
    return true;
  }

  void After(TimeDelta delay, Task task) { At(now_ + delay, std::move(task)); }

  void Every(TimeDelta period, std::function<bool()> task) {
    After(period, [this, period, task = std::move(task)]() mutable {
      if (task()) Every(period, std::move(task));
    });
  }

  void RunUntil(Timestamp until) {
    const uint64_t entry_owner = current_owner_;
    while (!queue_.empty() && queue_.front().when <= until) {
      std::pop_heap(queue_.begin(), queue_.end(), Event::Later{});
      Event ev = std::move(queue_.back());
      queue_.pop_back();
      now_ = ev.when;
      if (IsCancelled(ev.owner)) continue;
      current_owner_ = ev.owner;
      ev.task();
      current_owner_ = entry_owner;
    }
    if (until.IsFinite() && until > now_) now_ = until;
  }

  size_t pending_events() const { return queue_.size(); }

 private:
  struct Event {
    Timestamp when;
    uint64_t seq;
    uint64_t owner = 0;
    Task task;

    struct Later {
      bool operator()(const Event& a, const Event& b) const {
        if (a.when != b.when) return a.when > b.when;
        return a.seq > b.seq;
      }
    };
  };

  Timestamp now_ = Timestamp::Zero();
  uint64_t next_seq_ = 0;
  uint64_t next_owner_ = 1;
  uint64_t current_owner_ = 0;
  std::vector<uint8_t> cancelled_;
  std::vector<uint64_t> free_owners_;
  std::vector<Event> queue_;
};

// One log line: (virtual time in us, what happened, owner). Task runs log
// their id (periodic runs add their run count above bit 32); the script
// logs At() results, minted owners and pending_events() with negative tags.
using LoopLog = std::vector<std::tuple<int64_t, int64_t, uint64_t>>;

enum : int64_t {
  kLogAtResult = -1,
  kLogNewOwner = -2,
  kLogPending = -3,
  kLogPendingAfterPurge = -4,
};

// A seeded script over one loop. Every decision a task makes is drawn from
// an Rng seeded by (script seed, task id), so both loops run the same
// program whatever order they run it in; owners are drawn from the
// script's own live list, which evolves identically while the logs match.
template <typename Loop>
class LoopScript {
 public:
  struct Coverage {
    int64_t same_instant = 0;     // tasks scheduled at their own instant
    int64_t nested_scopes = 0;    // schedules under two nested scopes
    int64_t self_cancels = 0;     // periodic tasks cancelling their owner
    int64_t mid_run_cancels = 0;  // owners cancelled from inside a task
    int64_t purges = 0;           // PurgeCancelled calls that dropped work
    int64_t reused_owners = 0;    // NewOwner() returning a recycled id
    int64_t dropped_schedules = 0;  // At() refused (cancelled owner)
    int64_t periodic_runs = 0;
  };

  explicit LoopScript(uint64_t seed) : seed_(seed) {}

  LoopLog Run() {
    Rng script(seed_);
    for (int round = 0; round < 300; ++round) {
      if (script.Bernoulli(0.15) || live_.size() < 2) MintOwner();
      for (int64_t n = script.UniformInt(0, 4); n > 0; --n) {
        ScheduleFromScript(script);
      }
      if (script.Bernoulli(0.05) && live_.size() > 1) {
        CancelOwner(live_[static_cast<size_t>(
            script.UniformInt(1, static_cast<int64_t>(live_.size()) - 1))]);
      }
      const Timestamp until =
          loop_.Now() + TimeDelta::Millis(script.UniformInt(0, 12));
      loop_.RunUntil(until);
      Log(kLogPending, loop_.pending_events());
      if (script.Bernoulli(0.1)) Purge();
    }
    loop_.RunUntil(loop_.Now() + TimeDelta::Seconds(2));
    Log(kLogPending, loop_.pending_events());
    return log_;
  }

  const Coverage& coverage() const { return coverage_; }

 private:
  void Log(int64_t what, uint64_t owner) {
    log_.emplace_back(loop_.Now().us(), what, owner);
  }

  void MintOwner() {
    const uint64_t owner = loop_.NewOwner();
    if (std::find(minted_.begin(), minted_.end(), owner) != minted_.end()) {
      ++coverage_.reused_owners;
    }
    minted_.push_back(owner);
    live_.push_back(owner);
    Log(kLogNewOwner, owner);
  }

  void CancelOwner(uint64_t owner) {
    if (owner == 0) return;
    loop_.Cancel(owner);
    live_.erase(std::remove(live_.begin(), live_.end(), owner), live_.end());
    if (std::find(cancelled_.begin(), cancelled_.end(), owner) ==
        cancelled_.end()) {
      cancelled_.push_back(owner);
    }
  }

  // Between RunUntil calls only: cancelled owners are gone for good and
  // their ids go back into circulation.
  void Purge() {
    const size_t before = loop_.pending_events();
    loop_.PurgeCancelled();
    if (loop_.pending_events() < before) ++coverage_.purges;
    cancelled_.clear();
    Log(kLogPendingAfterPurge, loop_.pending_events());
  }

  uint64_t PickOwner(Rng& rng) {
    // Now and then a cancelled (not yet purged) owner: At() must refuse.
    if (!cancelled_.empty() && rng.Bernoulli(0.1)) {
      return cancelled_[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(cancelled_.size()) - 1))];
    }
    return live_[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(live_.size()) - 1))];
  }

  void ScheduleFromScript(Rng& script) {
    const uint64_t owner = PickOwner(script);
    typename Loop::OwnerScope scope(&loop_, owner);
    if (script.Bernoulli(0.2)) {
      const uint64_t inner = PickOwner(script);
      typename Loop::OwnerScope nested(&loop_, inner);
      ++coverage_.nested_scopes;
      Schedule(script, /*depth=*/0);
    } else {
      Schedule(script, /*depth=*/0);
    }
  }

  // Schedules one new task (one-shot or periodic) under the current owner.
  void Schedule(Rng& rng, int depth) {
    const int64_t id = next_id_++;
    const double kind = rng.NextDouble();
    if (kind < 0.2) {
      const TimeDelta period = TimeDelta::Millis(rng.UniformInt(1, 6));
      const int64_t runs = rng.UniformInt(1, 12);
      loop_.Every(period, [this, id, runs, n = int64_t{0}]() mutable {
        return Periodic(id, ++n, runs);
      });
      return;
    }
    bool accepted;
    if (kind < 0.35) {
      ++coverage_.same_instant;
      accepted = loop_.At(loop_.Now(), [this, id, depth] { Body(id, depth); });
    } else if (kind < 0.45) {
      // In the past: clamped to now.
      accepted = loop_.At(loop_.Now() - TimeDelta::Millis(rng.UniformInt(1, 5)),
                          [this, id, depth] { Body(id, depth); });
    } else if (kind < 0.75) {
      accepted = loop_.At(loop_.Now() + TimeDelta::Millis(rng.UniformInt(0, 8)),
                          [this, id, depth] { Body(id, depth); });
    } else {
      accepted = true;
      loop_.After(TimeDelta::Millis(rng.UniformInt(0, 8)),
                  [this, id, depth] { Body(id, depth); });
    }
    if (!accepted) ++coverage_.dropped_schedules;
    Log(kLogAtResult, accepted ? 1 : 0);
  }

  Rng TaskRng(int64_t id, int64_t run) const {
    return Rng(seed_ * 0x9e3779b97f4a7c15ull +
               static_cast<uint64_t>(id) * 1000003ull +
               static_cast<uint64_t>(run));
  }

  void Body(int64_t id, int depth) {
    Log(id, loop_.current_owner());
    Rng rng = TaskRng(id, 0);
    if (depth < 4 && rng.Bernoulli(0.45)) {
      for (int64_t n = rng.UniformInt(1, 2); n > 0; --n) {
        if (rng.Bernoulli(0.25)) {
          typename Loop::OwnerScope scope(&loop_, PickOwner(rng));
          Schedule(rng, depth + 1);
        } else {
          Schedule(rng, depth + 1);
        }
      }
    }
    if (rng.Bernoulli(0.03) && live_.size() > 1) {
      ++coverage_.mid_run_cancels;
      CancelOwner(live_[static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(live_.size()) - 1))]);
    }
  }

  bool Periodic(int64_t id, int64_t run, int64_t runs) {
    ++coverage_.periodic_runs;
    Log(id | run << 32, loop_.current_owner());
    Rng rng = TaskRng(id, run);
    // Work at this instant and at the instant of the next run, so the
    // re-armed slot's seq position is observable.
    if (rng.Bernoulli(0.3)) Schedule(rng, 3);
    const uint64_t owner = loop_.current_owner();
    if (owner != 0 && rng.Bernoulli(0.05)) {
      ++coverage_.self_cancels;
      CancelOwner(owner);
      return true;  // must not be re-armed
    }
    return run < runs;
  }

  uint64_t seed_;
  Loop loop_;
  LoopLog log_;
  Coverage coverage_;
  int64_t next_id_ = 0;
  std::vector<uint64_t> live_{0};   // owner 0 is always live
  std::vector<uint64_t> cancelled_;  // cancelled since the last purge
  std::vector<uint64_t> minted_;
};

TEST(EventLoopDifferential, MatchesClosureHeapLoop) {
  LoopScript<ClosureHeapLoop>::Coverage total;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    LoopScript<ClosureHeapLoop> reference(seed);
    LoopScript<EventLoop> slab(seed);
    const LoopLog expected = reference.Run();
    const LoopLog got = slab.Run();
    ASSERT_EQ(got.size(), expected.size()) << "seed " << seed;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], expected[i]) << "seed " << seed << " line " << i;
    }
    const auto& c = reference.coverage();
    total.same_instant += c.same_instant;
    total.nested_scopes += c.nested_scopes;
    total.self_cancels += c.self_cancels;
    total.mid_run_cancels += c.mid_run_cancels;
    total.purges += c.purges;
    total.reused_owners += c.reused_owners;
    total.dropped_schedules += c.dropped_schedules;
    total.periodic_runs += c.periodic_runs;
  }
  // The script really exercises what the slab must get right.
  EXPECT_GT(total.same_instant, 1000);
  EXPECT_GT(total.nested_scopes, 100);
  EXPECT_GT(total.self_cancels, 10);
  EXPECT_GT(total.mid_run_cancels, 10);
  EXPECT_GT(total.purges, 10);
  EXPECT_GT(total.reused_owners, 10);
  EXPECT_GT(total.dropped_schedules, 10);
  EXPECT_GT(total.periodic_runs, 1000);
}

}  // namespace
}  // namespace gso::sim
