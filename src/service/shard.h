// One shard of the orchestration service: a private virtual-time event
// loop hosting many conferences and a batched solve queue draining at
// slice boundaries.
//
// Threading contract: the service runs the shards' slices on parallel
// threads (shards share nothing); within a shard everything, the solve
// queue's drain included, happens on the thread that called RunSlice.
// Between slices the shard is quiescent and the service mutates it
// (Host/Remove, metrics sampling) from the main thread. Determinism: with
// conference metrics off, a shard's completed outcomes depend only on its
// seeds and the virtual clock — bit-identical regardless of how the other
// shards are scheduled.
//
// Failure domain: a shard is a sim::CrashableProcess. Crash() freezes it —
// the solve batch is abandoned (shed back to its conferences), slices stop
// advancing its loop, and every hosted meeting sits in limbo at the crash
// instant. The service detects the outage through the gossip plane and
// re-homes the victims: each conference is rebuilt on a surviving shard
// via Adopt() from the service's durable record (roster + SSRC frontier),
// entering the PR 4 controller-reconstruction path so its clients ride
// the template-policy floor until the new controller has re-collected the
// global picture. Restart() marks the shard ready; the service completes
// the revival between slices (CompleteRestart) once the dead shard is
// empty — a restarted shard comes back blank and never resurrects the
// conferences it lost.
#ifndef GSO_SERVICE_SHARD_H_
#define GSO_SERVICE_SHARD_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "common/ids.h"
#include "conference/conference.h"
#include "service/solve_queue.h"
#include "sim/fault_plan.h"
#include "sim/process.h"

namespace gso::service {

// What the service needs to host one conference.
struct ConferenceSpec {
  int participants = 2;
  bool gso = true;
  // Seeds the conference simulation and the per-participant access draws.
  uint64_t seed = 1;
};

// QoE outcome of one completed (removed) conference. All fields derive
// from the virtual-time simulation, so fleet aggregates are reproducible.
struct ConferenceOutcome {
  uint64_t id = 0;
  int participants = 0;
  bool gso = true;
  double video_stall = 0;
  double voice_stall = 0;
  double framerate = 0;
  double satisfaction = 0;
  int solves = 0;
  int solves_shed = 0;
};

// Running aggregate over completed conferences. A shard that lives for
// hours completes an unbounded stream of conferences, so outcomes fold
// into O(1) state at Remove() time instead of accumulating per outcome:
// sums and the exact min for the means/floor, a fixed-width satisfaction
// histogram (satisfaction lives in [0, 1]) for percentile floors, and an
// order-sensitive FNV-1a digest over each outcome's bytes for the
// determinism gates.
struct OutcomeAggregate {
  static constexpr int kBuckets = 1024;
  int completed = 0;
  double satisfaction_sum = 0;
  double video_sum = 0;
  double voice_sum = 0;
  double min_satisfaction = 0;
  std::array<uint32_t, kBuckets> satisfaction_histogram{};
  uint64_t digest = kDigestSeed;

  void Fold(const ConferenceOutcome& outcome);
};

class Shard : public sim::CrashableProcess {
 public:
  // Shard number `index` in the fleet; its solve queue holds at most
  // `solve_backlog` requests (see SolveQueue).
  Shard(int index, int solve_backlog);
  ~Shard() override;

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // Builds, wires (deferred-solve executor, fault plan) and starts a
  // conference under service-wide id `id`. Main thread, between slices.
  void Host(uint64_t id, const ConferenceSpec& spec);

  // Rebuilds a conference that previously ran elsewhere (shard crash
  // failover or cross-shard rebalancing): the roster is re-created from
  // the durable record's client ids, SSRC allocation starts past
  // `ssrc_frontier` so no SSRC of the old incarnation is ever reissued,
  // and the new controller immediately goes through its crash-
  // reconstruction path — clients run the template-policy floor until it
  // has re-collected the global picture. `generation` (bumped per
  // migration) re-seeds the access-network draws so the rebuild is
  // deterministic without replaying the original draw order.
  void Adopt(uint64_t id, const ConferenceSpec& spec,
             const std::vector<ClientId>& roster, uint32_t ssrc_frontier,
             uint64_t generation);

  // Finalizes the conference's outcome (folded into aggregate()) and
  // destroys it; its queued closures die via owner cancellation. Main
  // thread, between slices — the solve queue is empty then, so no solve
  // can be in flight for it.
  void Remove(uint64_t id);

  // Destroys the conference WITHOUT folding an outcome: the meeting is not
  // over, it is moving (failover / rebalance) and will fold its outcome on
  // the shard where it eventually ends. Also the teardown path for a dead
  // shard's limbo copies once their replacements are adopted elsewhere.
  void Discard(uint64_t id);

  // Advances the shard by one slice: runs the loop, then drains the solve
  // batch on the calling thread. Safe to call concurrently with other
  // shards' RunSlice. No-op while crashed — a dead shard's virtual clock
  // freezes, which is exactly the limbo its hosted conferences sit in.
  void RunSlice(TimeDelta slice);

  // --- Failure domain (sim::CrashableProcess) -----------------------------
  // Kills the shard at the current instant: abandons the queued solve
  // batch (live conferences re-arm via OnSolveShed; a re-homed incarnation
  // re-solves after migration), freezes the loop, and stops admissions.
  // Main thread / control loop, between slices. Idempotent while dead.
  void Crash() override;
  // Requests revival. The shard does NOT come back here — the service
  // completes the restart between slices (CompleteRestart) after the limbo
  // conferences have been discarded, because a restarted shard must come
  // back empty. Idempotent while alive.
  void Restart() override;
  bool alive() const override { return alive_; }
  std::string process_name() const override {
    return "shard" + std::to_string(index_);
  }
  bool restart_pending() const { return restart_pending_; }
  // Completes a pending Restart(): requires every limbo conference to be
  // discarded first; purges their cancelled owners and fast-forwards the
  // frozen loop to the fleet clock so the shard rejoins the lock-step
  // slices. Main thread, between slices.
  void CompleteRestart(Timestamp fleet_now);
  // Fleet instant of the last Crash() (the shard loop is slice-synced with
  // the fleet clock, so its frozen Now() is the crash time).
  Timestamp crashed_at() const { return crashed_at_; }
  uint64_t crashes() const { return crashes_; }
  uint64_t restarts() const { return restarts_; }
  uint64_t adopted() const { return adopted_; }

  // --- Admission accounting (per failure domain) ---------------------------
  // The service records each refused admission against the shard that
  // would have hosted the conference, so per-domain pressure is visible
  // (service.shard.admission_rejected) — aggregate-only counting hides
  // which domain is saturated or dark.
  void RecordAdmissionRejection() { ++admission_rejected_; }
  uint64_t admission_rejected() const { return admission_rejected_; }

  // --- Degraded-window QoE (failover floor) --------------------------------
  // Adopted conferences sample their QoE once near the end of the
  // reconstruction window (before the measurement restart excludes it);
  // the minimum across them is the observed floor clients rode during the
  // outage — the number the QoE-floor gate in the failover bench checks.
  double degraded_qoe_floor() const { return degraded_qoe_floor_; }
  uint64_t degraded_qoe_samples() const { return degraded_qoe_samples_; }

  // --- Between-slice access (main thread) --------------------------------
  conference::Conference* Get(uint64_t id);
  // Per-conference fault plan for scripted churn; schedule episodes under
  // sim::EventLoop::OwnerScope(&loop(), Get(id)->owner()).
  sim::FaultPlan* fault_plan(uint64_t id);
  sim::EventLoop& loop() { return loop_; }
  Timestamp Now() const { return loop_.Now(); }
  int conference_count() const { return static_cast<int>(hosted_.size()); }
  // Hosted conference ids, ascending. The failover path snapshots a dead
  // shard's victims through this before discarding them.
  std::vector<uint64_t> hosted_ids() const;
  const OutcomeAggregate& aggregate() const { return aggregate_; }
  int queue_depth() const { return queue_.depth(); }
  SolveQueueStats& queue_stats() { return queue_.stats(); }
  int index() const { return index_; }
  // Solves committed per virtual second since the shard started (virtual
  // time, so the rate is deterministic).
  double solves_per_virtual_sec() const;

 private:
  struct Hosted {
    std::unique_ptr<conference::Conference> conference;
    std::unique_ptr<sim::FaultPlan> plan;
    ConferenceSpec spec;
  };

  SolveClass Classify(const Hosted& hosted,
                      const conference::ConferenceNode* node) const;
  // Shared tail of Host/Adopt: executor wiring + start + measurement
  // scheduling. `reconstructing` marks the adopted (post-crash) path.
  void WireAndStart(uint64_t id, Hosted hosted, bool reconstructing);
  void EraseHosted(uint64_t id);

  int index_;
  sim::EventLoop loop_;
  SolveQueue queue_;
  std::map<uint64_t, Hosted> hosted_;
  OutcomeAggregate aggregate_;
  uint64_t removals_ = 0;
  // Failure-domain state.
  bool alive_ = true;
  bool restart_pending_ = false;
  Timestamp crashed_at_ = Timestamp::Zero();
  uint64_t crashes_ = 0;
  uint64_t restarts_ = 0;
  uint64_t adopted_ = 0;
  uint64_t admission_rejected_ = 0;
  // Written by adopted conferences' probe tasks on the shard thread during
  // slices; read by the main thread between slices.
  double degraded_qoe_floor_ = 1.0;
  uint64_t degraded_qoe_samples_ = 0;
};

}  // namespace gso::service

#endif  // GSO_SERVICE_SHARD_H_
