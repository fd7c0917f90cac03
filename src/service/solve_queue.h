// Batched solve queue for the orchestration service.
//
// Conferences submit deferred orchestrations during a virtual-time slice
// (through ConferenceNode::SetSolveExecutor); at the slice boundary the
// shard drains the batch serially on its own thread, solving and then
// committing each entry in priority order. Three design points keep the
// service deterministic:
//
//  * Priority classes, not priority preemption. Entries are sorted by
//    (class, arrival seq) at drain time — degraded and large meetings
//    solve and commit first, so their re-configurations reach clients
//    earliest.
//
//  * Bounded backlog with displacement shedding. Push refuses the lowest-
//    priority work when full; an arriving higher-class request displaces
//    the worst queued entry instead of being dropped. Shed conferences
//    re-arm their event trigger (OnSolveShed), so shedding trades latency,
//    never correctness.
//
//  * Virtual determinism, wall-clock observability. Accept/shed decisions
//    depend only on arrival order within the slice (virtual time), so a
//    fleet run is bit-reproducible; the wall-clock queue latency recorded
//    per entry feeds metrics only, never the simulation.
//
// Owner safety: every entry carries its conference's event-loop owner id,
// and the queue never touches an entry's node once that owner is cancelled
// — the node may be freed memory by then. Cancelled entries are dropped
// silently at displacement, drain, and Abandon() time (counted in
// stats.stale_dropped). Abandon() is the teardown/crash path: it sheds the
// whole batch back to the surviving conferences without running a single
// solve, so a shard destroyed (or killed) mid-batch leaves no stray
// commits.
#ifndef GSO_SERVICE_SOLVE_QUEUE_H_
#define GSO_SERVICE_SOLVE_QUEUE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "conference/conference_node.h"

namespace gso::service {

// Drain order: degraded meetings (active fault episodes / recovering)
// first, then large meetings (most participants affected per solve), then
// the rest.
enum class SolveClass { kDegraded = 0, kLarge = 1, kNormal = 2 };

struct SolveQueueStats {
  SolveQueueStats() { queue_latency_us.SetCapacity(8192); }

  uint64_t accepted = 0;
  uint64_t shed_rejected = 0;   // Push refused: queue full, lowest priority
  uint64_t shed_displaced = 0;  // queued entry bumped by a higher class
  // Entries shed without running by Abandon() — shard teardown or crash.
  // Their conferences re-armed via OnSolveShed (when still alive).
  uint64_t shed_abandoned = 0;
  // Entries dropped because their owner was cancelled after they were
  // queued (the conference is gone; its node must never be touched).
  uint64_t stale_dropped = 0;
  uint64_t solved = 0;
  uint64_t batches = 0;
  // Wall clock from Push to the start of the drain that ran the solve.
  // Bounded (reservoir) because the queue records one sample per solve for
  // the lifetime of the shard; it feeds latency gauges only, never the
  // simulation, so the sampling cannot perturb determinism.
  SampleSet queue_latency_us;
};

class SolveQueue {
 public:
  // `loop` is the shard loop whose owner ids tag the entries; it must
  // outlive the queue.
  explicit SolveQueue(int backlog, sim::EventLoop* loop)
      : backlog_(backlog < 1 ? 1 : backlog), loop_(loop) {}

  SolveQueue(const SolveQueue&) = delete;
  SolveQueue& operator=(const SolveQueue&) = delete;

  // Accepts `node`'s pending orchestration (problem already built) into
  // the current batch; `owner` is the conference's event-loop owner id,
  // restored around the commit so dissemination closures die with the
  // conference. Returns false when the queue is full and the request ranks
  // at or below everything queued; when a queued entry ranks strictly
  // lower it is displaced (its node re-arms via OnSolveShed — unless its
  // owner has been cancelled in the meantime, in which case the node may
  // be freed and is not touched) and the new request takes the slot.
  bool Push(conference::ConferenceNode* node, SolveClass cls,
            uint64_t owner) {
    const Entry entry{node, cls, next_seq_++, owner,
                      std::chrono::steady_clock::now()};
    if (static_cast<int>(entries_.size()) < backlog_) {
      entries_.push_back(entry);
      ++stats_.accepted;
      return true;
    }
    // Worst queued entry: highest class, newest arrival among ties.
    auto worst = std::max_element(
        entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
          if (a.cls != b.cls) return a.cls < b.cls;
          return a.seq < b.seq;
        });
    if (!(entry.cls < worst->cls)) {
      ++stats_.shed_rejected;
      return false;
    }
    if (loop_->IsCancelled(worst->owner)) {
      // The displaced entry's conference left after queueing: its node may
      // be freed state. Drop the entry without the OnSolveShed callback.
      ++stats_.stale_dropped;
    } else {
      worst->node->OnSolveShed();
      ++stats_.shed_displaced;
    }
    *worst = entry;
    ++stats_.accepted;
    return true;
  }

  // Slice-boundary drain: in (class, seq) order, solves and commits each
  // queued entry on the calling thread (one conference per entry — the
  // in-flight guard in ConferenceNode means no node appears twice).
  // Entries whose owner was cancelled since Push are dropped up front —
  // never run, never committed.
  void Drain() {
    if (entries_.empty()) return;
    DropStaleEntries();
    if (entries_.empty()) return;
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry& a, const Entry& b) {
                if (a.cls != b.cls) return a.cls < b.cls;
                return a.seq < b.seq;
              });
    const auto drain_start = std::chrono::steady_clock::now();
    for (const Entry& entry : entries_) {
      stats_.queue_latency_us.Add(
          static_cast<double>(std::chrono::duration_cast<
                                  std::chrono::microseconds>(
                                  drain_start - entry.enqueued)
                                  .count()));
      const sim::EventLoop::OwnerScope scope(loop_, entry.owner);
      entry.node->RunDeferredSolve();
    }
    stats_.solved += entries_.size();
    ++stats_.batches;
    entries_.clear();
  }

  // Teardown / crash path: sheds the whole batch without running anything.
  // Live conferences get OnSolveShed (the in-flight flag clears and the
  // event trigger re-arms, so a conference surviving its shard's crash
  // re-solves after re-homing); cancelled owners' entries are dropped
  // without touching the node. Idempotent on an empty queue.
  void Abandon() {
    for (const Entry& entry : entries_) {
      if (loop_->IsCancelled(entry.owner)) {
        ++stats_.stale_dropped;
      } else {
        entry.node->OnSolveShed();
        ++stats_.shed_abandoned;
      }
    }
    entries_.clear();
  }

  int depth() const { return static_cast<int>(entries_.size()); }
  int backlog() const { return backlog_; }
  SolveQueueStats& stats() { return stats_; }
  const SolveQueueStats& stats() const { return stats_; }

 private:
  struct Entry {
    conference::ConferenceNode* node;
    SolveClass cls;
    uint64_t seq;    // arrival order within the batch
    uint64_t owner;  // the conference's event-loop owner id
    std::chrono::steady_clock::time_point enqueued;
  };

  void DropStaleEntries() {
    const size_t before = entries_.size();
    std::erase_if(entries_, [this](const Entry& entry) {
      return loop_->IsCancelled(entry.owner);
    });
    stats_.stale_dropped += before - entries_.size();
  }

  int backlog_;
  sim::EventLoop* loop_;
  uint64_t next_seq_ = 0;
  std::vector<Entry> entries_;
  SolveQueueStats stats_;
};

}  // namespace gso::service

#endif  // GSO_SERVICE_SOLVE_QUEUE_H_
