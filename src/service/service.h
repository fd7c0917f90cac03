// Fleet-scale orchestration service: one process owning many conferences.
//
// The paper's controller orchestrates a single conference; production runs
// ~1M conferences/day through shared orchestration infrastructure. This
// service models that layer: conferences are admitted (bounded — beyond
// the capacity the join is rejected, not queued), assigned to shards
// (least-loaded, deterministic tie-break), and advanced in lock-step
// virtual-time slices. Each shard multiplexes its conferences on one
// event loop, batches their solve requests in a priority queue (degraded
// and large meetings drain first), and drains the batch serially on its
// own thread at each slice boundary.
//
// Failure domains: each shard is a crashable process. A control-plane
// event loop — advanced on the main thread between slices — carries the
// gossip fabric (per-shard agents exchanging load summaries over lossy
// sim::Links, see gossip.h) and a service-level fault plan on which whole-
// shard outages are scripted (sim::FaultPlan::ShardCrash/ShardRestart).
// When a shard dies its conferences freeze in limbo; once a majority of
// live gossip agents suspect it (confirmed against ground truth — a
// direct liveness probe in a real deployment), the service re-homes every
// victim onto surviving shards from its durable per-conference records
// (roster + SSRC frontier), each rebuilt controller entering the crash-
// reconstruction path while its clients ride the template-policy floor.
// The same migration machinery rebalances load skew flagged by the
// gossiped views, and admission degrades gracefully while the fleet is
// under-capacity (effective capacity scales with live shards; rejections
// are charged to the would-be host's failure domain).
//
// Determinism: all cross-shard mutation — gossip delivery, crash events,
// failover, rebalancing, record sweeps — happens on the main thread
// between slices in shard-index order, so the fleet digest is
// bit-identical whether slices run sequentially or on parallel threads.
//
// Observability: per-shard `service.shard.*` series (queue depth, p50/p99
// queue latency, solves/sec, shed + admission-rejection counts), fleet
// `service.gossip.*` and `service.failover.*` series, all sampled on the
// main thread between slices — the registry is not thread-safe and the
// shards are quiescent then.
#ifndef GSO_SERVICE_SERVICE_H_
#define GSO_SERVICE_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.h"
#include "obs/metrics.h"
#include "service/gossip.h"
#include "service/shard.h"
#include "sim/fault_plan.h"

namespace gso::service {

struct ServiceConfig {
  int num_shards = 2;
  // Must be 1: each shard drains its solve queue on its own thread. Kept
  // only so existing callers that set it still compile.
  int solver_threads_per_shard = 1;
  // Admission bound with every shard up; the effective bound scales with
  // the live-shard fraction while part of the fleet is down.
  int max_conferences = 64;
  // Per-shard solve-queue backlog (see SolveQueue).
  int solve_backlog = 32;
  // Run shard slices on parallel threads. Off, the slices run sequentially
  // on the caller's thread — same results (shards share nothing), useful
  // for debugging.
  bool parallel_shards = true;
  // Inter-shard gossip (heartbeats + load summaries; see GossipConfig).
  GossipConfig gossip;
  // Cross-shard rebalancing: when a shard's occupancy exceeds the smallest
  // gossiped peer occupancy by at least `rebalance_min_gap`, it migrates up
  // to two conferences toward that peer, then cools down for 5 s. The
  // default gap is comfortably above the ±1 skew least-loaded admission
  // leaves, so rebalancing only engages after real disruption (a crashed
  // shard's victims piling onto survivors).
  int rebalance_min_gap = 6;
  // Optional service-level observability; must outlive the service.
  obs::MetricsRegistry* metrics = nullptr;
};

// Fleet-wide aggregate over completed conferences. Every field derives
// from virtual-time simulation state, so two runs with the same seeds and
// admission sequence agree bit-for-bit.
struct FleetReport {
  int completed = 0;
  int live = 0;
  double mean_satisfaction = 0;
  // QoE floor: 5th-percentile satisfaction across completed conferences —
  // the churn-storm gate watches this, not the mean, because load shedding
  // that starves a few meetings moves the floor long before the mean.
  // Computed from the shards' fixed-width histograms (outcomes fold into
  // O(1) per-shard aggregates, see OutcomeAggregate), so the value is a
  // nearest-rank bucket floor within 1/OutcomeAggregate::kBuckets of exact.
  double p5_satisfaction = 0;
  double min_satisfaction = 0;
  double mean_video_stall = 0;
  double mean_voice_stall = 0;
  uint64_t solves = 0;
  uint64_t solves_shed = 0;
  // Order-sensitive hash: each shard folds its outcomes' bits into a
  // running FNV-1a digest as they complete, and the fleet digest combines
  // the per-shard digests in shard index order. Two runs produced the same
  // fleet history iff the digests match (per-shard determinism gate).
  uint64_t digest = 0;
};

// Failure-domain bookkeeping, exposed for the failover bench/test gates.
struct FailoverCounters {
  uint64_t shard_crashes = 0;
  uint64_t shard_restarts = 0;
  // Victim conferences rebuilt on a surviving shard.
  uint64_t conferences_rehomed = 0;
  // Victim conferences whose natural end (churn) arrived while still in
  // limbo, before the failover path got to them.
  uint64_t limbo_removed = 0;
  // Migrations triggered by gossiped load skew, not by a crash.
  uint64_t rebalance_migrations = 0;
};

class OrchestrationService {
 public:
  explicit OrchestrationService(const ServiceConfig& config);
  ~OrchestrationService();

  OrchestrationService(const OrchestrationService&) = delete;
  OrchestrationService& operator=(const OrchestrationService&) = delete;

  // Admission control: hosts the conference on the least-loaded live shard
  // and returns its service-wide id, or nullopt (counted in rejected(),
  // and against the would-be host shard) when the fleet is at its current
  // effective capacity — which shrinks proportionally while shards are
  // down — or entirely dark.
  std::optional<uint64_t> Admit(const ConferenceSpec& spec);

  // Completes a conference: its outcome joins the fleet report and its
  // event-loop closures are cancelled. Works on limbo conferences too (a
  // meeting may end naturally while its shard is down, before failover
  // re-homes it — the frozen outcome still folds deterministically).
  // No-op for unknown ids.
  void Remove(uint64_t id);

  // Advances every shard by `duration`, slice by slice. Within a slice the
  // live shards run concurrently (see ServiceConfig::parallel_shards);
  // between slices — on the calling thread, in deterministic order — the
  // service advances the control plane (gossip, scripted shard faults),
  // runs failover and rebalancing, refreshes the durable records, and
  // samples metrics.
  void RunFor(TimeDelta duration);

  // Fleet clock. Kept by the service itself (not borrowed from shard 0 —
  // any shard, including the first, can be down with its loop frozen).
  Timestamp Now() const { return now_; }

  // --- Introspection / churn access (between RunFor calls) ---------------
  // Null while the conference's shard is down (the object is frozen in
  // limbo — scripting faults or membership changes on it would be lost in
  // the rebuild); callers treat null as "conference unavailable".
  conference::Conference* Get(uint64_t id);
  sim::FaultPlan* fault_plan(uint64_t id);
  // Live conference ids in ascending order (deterministic victim picks).
  std::vector<uint64_t> live_ids() const;
  int conference_count() const;
  uint64_t admitted() const { return admitted_; }
  uint64_t rejected() const { return rejected_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  Shard& shard(int index) { return *shards_[static_cast<size_t>(index)]; }

  // --- Failure-domain access ----------------------------------------------
  // Fault plan on the control loop: script whole-shard outages here with
  // plan->ShardCrash(&service.shard(i), ...) / ShardRestart(...). Events
  // fire between slices on the main thread.
  sim::FaultPlan& control_faults() { return *control_faults_; }
  sim::EventLoop& control_loop() { return control_loop_; }
  GossipFabric& gossip() { return *gossip_; }
  // Directed gossip link for scripted control-plane impairments.
  sim::Link* gossip_link(int from, int to) { return gossip_->link(from, to); }
  const FailoverCounters& failover() const { return failover_; }
  // Crash-to-rehome latency per victim conference, in virtual microseconds.
  // (Non-const: percentile queries sort the sample buffer in place.)
  SampleSet& recovery_us() { return recovery_us_; }
  // Worst QoE sampled inside any victim's post-crash reconstruction window
  // (1.0 when no failover has happened yet; see Shard::degraded_qoe_floor).
  double degraded_qoe_floor() const;

  FleetReport Report();

 private:
  // Durable per-conference record backing crash failover: what the service
  // must know to rebuild a meeting whose shard died without warning. The
  // roster and SSRC frontier are refreshed from the live object every
  // slice (write-through at the boundary), so at crash time the record is
  // at most one slice stale; kSsrcFrontierSlack covers that gap.
  struct ConferenceRecord {
    ConferenceSpec spec;
    std::vector<ClientId> roster;
    uint32_t ssrc_frontier = 0;
    // Bumped per migration; seeds the rebuilt incarnation's access draws.
    uint64_t generation = 0;
  };

  void WireMetrics();
  // Between-slice control steps, in deterministic order.
  void SyncGossipLiveness();
  void ProcessFailovers();
  void ProcessRebalance();
  void UpdateRecords();
  // Moves one conference to `target` (failover from a dead shard or
  // rebalance from a live one) using roster/frontier/generation from its
  // record, which the caller has just refreshed or slack-padded.
  void MigrateTo(uint64_t id, int target);
  int LeastLoadedLiveShard(int excluding) const;

  ServiceConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<uint64_t, int> conference_shard_;  // id -> shard index
  std::map<uint64_t, ConferenceRecord> records_;
  uint64_t next_id_ = 1;
  uint64_t admitted_ = 0;
  uint64_t rejected_ = 0;
  // Control plane: its loop is advanced between slices on the main thread.
  Timestamp now_ = Timestamp::Zero();
  sim::EventLoop control_loop_;
  std::unique_ptr<sim::FaultPlan> control_faults_;
  std::unique_ptr<GossipFabric> gossip_;
  // Shard liveness as of the last control sweep, to detect transitions.
  std::vector<bool> shard_alive_;
  std::vector<Timestamp> last_rebalance_;
  FailoverCounters failover_;
  SampleSet recovery_us_;
};

}  // namespace gso::service

#endif  // GSO_SERVICE_SERVICE_H_
