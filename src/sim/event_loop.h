// Discrete-event simulation core.
//
// EventLoop owns the simulated clock. Components schedule closures at
// absolute or relative virtual times; RunUntil() drains events in timestamp
// order (FIFO among equal timestamps). Nothing in the library reads wall
// clock — a 105-day fleet simulation runs in seconds.
//
// Storage: tasks and their owners wait in a slab of slots with a free list;
// the heap sifts only 24-byte {when, seq, slot} keys, ordered by (when,
// seq). A slot is freed before its task runs, so the task may schedule
// into it. A periodic task (Every) keeps its slot and its period: after it
// returns true, and while its owner is not cancelled, the same slot is
// pushed again at Now() + period with the next seq — the instant and the
// seq a fresh Every() call from inside the task would take.
//
// Ownership / cancellation: when many independent components (e.g. the
// orchestration service's hosted conferences) share one loop, a component
// must be destroyable mid-run even though its closures are still queued.
// Owner ids solve this without per-event bookkeeping at call sites: tasks
// scheduled inside an OwnerScope — or from within an owned task — inherit
// the current owner, and Cancel(owner) turns every queued and future task
// of that owner into a no-op (periodic timers stop rescheduling because
// the skipped task never runs). Owner 0 is the default "unowned" id and
// can never be cancelled, so single-conference harnesses pay nothing.
#ifndef GSO_SIM_EVENT_LOOP_H_
#define GSO_SIM_EVENT_LOOP_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/units.h"

namespace gso::sim {

class EventLoop {
 public:
  using Task = std::function<void()>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Timestamp Now() const { return now_; }

  // --- Ownership (see the header comment) --------------------------------
  // Mints a fresh owner id for a component whose events may need to be
  // cancelled as a group. Ids of cancelled owners reclaimed by
  // PurgeCancelled() are reused before new ones are minted, so long-lived
  // multi-tenant loops don't grow the owner space without bound.
  uint64_t NewOwner() {
    if (!free_owners_.empty()) {
      const uint64_t owner = free_owners_.back();
      free_owners_.pop_back();
      return owner;
    }
    return next_owner_++;
  }

  // Scopes the current owner: tasks scheduled while the scope is alive are
  // tagged with `owner`. Nest freely; the previous owner is restored on
  // destruction.
  class OwnerScope {
   public:
    OwnerScope(EventLoop* loop, uint64_t owner)
        : loop_(loop), previous_(loop->current_owner_) {
      loop_->current_owner_ = owner;
    }
    ~OwnerScope() { loop_->current_owner_ = previous_; }
    OwnerScope(const OwnerScope&) = delete;
    OwnerScope& operator=(const OwnerScope&) = delete;

   private:
    EventLoop* loop_;
    uint64_t previous_;
  };

  // Cancels every queued and future task of `owner`: queued ones are
  // skipped when popped (their closures may reference freed state, so they
  // must never run), future At()/After() calls under this owner are
  // dropped at scheduling time. Owner 0 is never cancelled.
  void Cancel(uint64_t owner) {
    if (owner == 0) return;
    if (cancelled_.size() <= owner) cancelled_.resize(owner + 1, 0);
    cancelled_[owner] = 1;
  }

  bool IsCancelled(uint64_t owner) const {
    return owner < cancelled_.size() && cancelled_[owner] != 0;
  }

  // Reclaims cancelled-owner bookkeeping: drops every queued task of a
  // cancelled owner from the heap (they would be skipped at pop anyway),
  // frees their slots and recycles the owner ids through NewOwner(). Only
  // call when every cancelled owner's component is already destroyed —
  // nothing may schedule under those ids again — and never from inside a
  // running task. Pop order is unaffected: (when, seq) keys are unique, so
  // rebuilding the heap cannot reorder surviving events. Long-lived
  // multi-tenant loops (service shards) call this periodically so hours of
  // conference churn leave neither skipped heap entries nor an
  // ever-growing cancelled bitmap.
  void PurgeCancelled() {
    bool any = false;
    for (uint64_t owner = 1; owner < cancelled_.size(); ++owner) {
      if (cancelled_[owner] != 0) {
        any = true;
        break;
      }
    }
    if (!any) return;
    std::erase_if(queue_, [this](const Key& key) {
      if (!IsCancelled(slots_[key.slot].owner)) return false;
      Free(key.slot);
      return true;
    });
    std::make_heap(queue_.begin(), queue_.end(), Key::Later{});
    for (uint64_t owner = 1; owner < cancelled_.size(); ++owner) {
      if (cancelled_[owner] != 0) {
        cancelled_[owner] = 0;
        free_owners_.push_back(owner);
      }
    }
  }

  uint64_t current_owner() const { return current_owner_; }

  // Schedules `task` at absolute virtual time `when` (clamped to Now()),
  // tagged with the current owner. Returns false, dropping the task, when
  // the current owner is cancelled.
  bool At(Timestamp when, Task task) {
    if (IsCancelled(current_owner_)) return false;
    const uint32_t slot = Claim();
    slots_[slot].task = std::move(task);
    Push(when, slot);
    return true;
  }

  // Schedules `task` `delay` after the current virtual time.
  void After(TimeDelta delay, Task task) { At(now_ + delay, std::move(task)); }

  // Schedules `task` every `period`, first firing at Now() + period, until
  // the task returns false or the loop ends.
  void Every(TimeDelta period, std::function<bool()> task) {
    if (IsCancelled(current_owner_)) return;
    const uint32_t slot = Claim();
    slots_[slot].repeat = std::move(task);
    slots_[slot].period = period;
    Push(now_ + period, slot);
  }

  // Runs events until the queue is empty or virtual time would pass `until`.
  // Leaves the clock at `until` (or at the last event time if earlier events
  // emptied the queue exactly at `until`).
  void RunUntil(Timestamp until) {
    const uint64_t entry_owner = current_owner_;
    while (!queue_.empty() && queue_.front().when <= until) {
      std::pop_heap(queue_.begin(), queue_.end(), Key::Later{});
      const Key key = queue_.back();
      queue_.pop_back();
      now_ = key.when;
      Slot& slot = slots_[key.slot];
      if (IsCancelled(slot.owner)) {
        Free(key.slot);
        continue;
      }
      // Tasks scheduled from inside this task inherit its owner.
      current_owner_ = slot.owner;
      if (slot.repeat) {
        RunPeriodic(key.slot);
      } else {
        // Moved out and freed first: the task may schedule into this slot,
        // and scheduling may grow (move) the slab.
        const Task task = std::move(slot.task);
        Free(key.slot);
        task();
      }
      current_owner_ = entry_owner;
    }
    if (until.IsFinite() && until > now_) now_ = until;
  }

  // Runs for `duration` of virtual time from the current instant.
  void RunFor(TimeDelta duration) { RunUntil(now_ + duration); }

  // Drains every scheduled event regardless of timestamp.
  void RunAll() { RunUntil(Timestamp::PlusInfinity()); }

  bool empty() const { return queue_.empty(); }
  size_t pending_events() const { return queue_.size(); }

 private:
  // Heap entry: the slot of one scheduled task.
  struct Key {
    Timestamp when;
    uint64_t seq;  // breaks ties FIFO
    uint32_t slot;

    // Min-heap comparator: a sorts after b when it fires later (or was
    // scheduled later at the same instant).
    struct Later {
      bool operator()(const Key& a, const Key& b) const {
        if (a.when != b.when) return a.when > b.when;
        return a.seq > b.seq;
      }
    };
  };

  // One scheduled task: `task` for At()/After(), `repeat` and `period` for
  // Every(). A free slot holds neither.
  struct Slot {
    Task task;
    std::function<bool()> repeat;
    TimeDelta period;
    uint64_t owner = 0;
  };

  // Takes a free slot for a task of the current owner.
  uint32_t Claim() {
    uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    slots_[slot].owner = current_owner_;
    return slot;
  }

  // Returns a slot to the free list, destroying whatever task it holds.
  void Free(uint32_t slot) {
    slots_[slot].task = nullptr;
    slots_[slot].repeat = nullptr;
    free_slots_.push_back(slot);
  }

  void Push(Timestamp when, uint32_t slot) {
    if (when < now_) when = now_;
    queue_.push_back(Key{when, next_seq_++, slot});
    std::push_heap(queue_.begin(), queue_.end(), Key::Later{});
  }

  // Runs a periodic slot's task outside the slab (scheduling may move the
  // slab), then re-arms the slot or frees it.
  void RunPeriodic(uint32_t slot) {
    std::function<bool()> repeat = std::move(slots_[slot].repeat);
    if (repeat() && !IsCancelled(current_owner_)) {
      slots_[slot].repeat = std::move(repeat);
      Push(now_ + slots_[slot].period, slot);
    } else {
      Free(slot);
    }
  }

  Timestamp now_ = Timestamp::Zero();
  uint64_t next_seq_ = 0;
  uint64_t next_owner_ = 1;     // 0 is the permanent "unowned" id
  uint64_t current_owner_ = 0;  // inherited by tasks scheduled right now
  std::vector<uint8_t> cancelled_;  // indexed by owner id
  std::vector<uint64_t> free_owners_;  // reclaimed by PurgeCancelled()
  // Explicit binary min-heap on (when, seq); front() is the next event.
  std::vector<Key> queue_;
  std::vector<Slot> slots_;         // indexed by Key::slot
  std::vector<uint32_t> free_slots_;
};

}  // namespace gso::sim

#endif  // GSO_SIM_EVENT_LOOP_H_
