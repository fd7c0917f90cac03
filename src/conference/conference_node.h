// Control plane: the conference node + GSO controller driver.
//
// The conference node handles signaling (SDP + simulcastInfo negotiation,
// SSRC assignment per layer — paper §4.2), captures the global picture
// (subscriptions, codec capabilities, uplink SEMB reports, downlink BWE
// reports from accessing nodes, the current speaker), and periodically
// runs the GSO control algorithm:
//  - a time trigger guarantees a run at least every kMaxCallInterval (3 s),
//  - an event trigger (significant bandwidth change, membership or
//    subscription change, speaker change) runs it earlier, but never
//    sooner than kMinCallInterval (1 s) after the previous run
// (paper §6, Fig. 12: mean interval ~1.8 s, bounded to [1 s, 3 s]).
//
// Solutions are disseminated as per-publisher GTBR stream configurations
// (via the publisher's accessing node, acknowledged with GTBN) plus
// forwarding tables for every accessing node.
#ifndef GSO_CONFERENCE_CONFERENCE_NODE_H_
#define GSO_CONFERENCE_CONFERENCE_NODE_H_

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/ids.h"
#include "common/stats.h"
#include "common/units.h"
#include "conference/accessing_node.h"
#include "conference/client.h"
#include "conference/directory.h"
#include "core/conditioner.h"
#include "core/mckp.h"
#include "core/orchestrator.h"
#include "core/types.h"
#include "net/sdp.h"
#include "net/ssrc_allocator.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/process.h"

namespace gso::conference {

// The controller's cadence and recovery timing (paper §6 and §7) are
// design constants; the ones a test or example reads are exported here,
// the rest live in conference_node.cpp.
//
// Time trigger: a solve runs at least every kMaxCallInterval.
inline constexpr TimeDelta kMaxCallInterval = TimeDelta::Seconds(3);
// Crash recovery (paper §7 "Design for failure"): after Restart() the
// controller holds off orchestrating until every member has delivered a
// fresh uplink AND downlink report (reports predating the restart were
// wiped with the rest of the volatile state), or until this deadline
// passes, whichever comes first. Clients report on their 1 s policy tick
// and nodes every 500 ms, so 2.5 s covers one full collection round plus
// slack without stretching the outage.
inline constexpr TimeDelta kReconstructTimeout = TimeDelta::MillisF(2500);
// Re-solve damping after reconstruction: event triggers are suppressed for
// this long (the kMaxCallInterval time trigger still fires), so the burst
// of fresh reports and GTBN acks arriving as clients leave degraded mode
// cannot fan out into a re-solve storm.
inline constexpr TimeDelta kRestartDamping = TimeDelta::Seconds(5);

struct ControllerConfig {
  // Bandwidth report change that counts as an orchestration event.
  double event_threshold = 0.20;
  core::ConditionerConfig conditioner;
  // SSRC allocation starts at this value when non-zero (the allocator's
  // own default otherwise). A conference rebuilt on another shard after a
  // shard crash seeds this past the old incarnation's recorded frontier,
  // so the never-reissued SSRC guarantee spans the migration.
  uint32_t first_ssrc = 0;
};

class ConferenceNode : public sim::CrashableProcess {
 public:
  ConferenceNode(sim::EventLoop* loop, ControllerConfig config = {});

  StreamDirectory* directory() { return &directory_; }
  // Read-only view for harness invariant checks: ids stay monotone and
  // the live-owner set stays bounded under churn.
  const net::SsrcAllocator& ssrc_allocator() const { return ssrc_allocator_; }

  // --- Signaling ---------------------------------------------------------
  // Joins `client` homed at `node`: negotiates the SDP offer, allocates
  // SSRCs, registers streams, wires the client. Returns false if the offer
  // was rejected.
  bool Join(Client* client, AccessingNode* node);
  void Leave(ClientId client);
  // Replaces the subscription intents of one subscriber.
  void SetSubscriptions(ClientId subscriber,
                        std::vector<core::Subscription> subscriptions);
  void SetSpeaker(std::optional<ClientId> speaker);

  void Start();

  // Attaches the control-plane solve trace to `registry` (one series per
  // SolveStats field, recorded after every orchestration). Null detaches;
  // the registry must outlive this node.
  void SetMetrics(obs::MetricsRegistry* registry);

  // --- Global picture inputs (paper §4.2) --------------------------------
  void OnSembReport(ClientId client, DataRate uplink_estimate);
  void OnDownlinkReport(ClientId client, DataRate downlink_estimate);
  // GTBN ack forwarded by the publisher's accessing node. An ack whose
  // epoch does not match the publisher's outstanding config is stale (it
  // acknowledges a superseded solve) and is counted but ignored.
  void OnGtbnAck(ClientId publisher, const net::GsoTmmbn& ack);

  // Forces an immediate orchestration (used by tests).
  void OrchestrateNow();

  // --- Deferred solve (service mode) --------------------------------------
  // By default Orchestrate() solves inline on the loop thread. A host that
  // multiplexes many conferences installs an executor instead: when a
  // trigger fires, the node builds the problem and hands itself to the
  // executor, which enqueues the solve. The executor returns false to shed
  // the request (queue full): the node re-arms its event trigger so the
  // solve happens at a later tick. The host later calls RunDeferredSolve()
  // on the loop thread, which solves and disseminates at that virtual time
  // (modeling the solve's queueing latency deterministically).
  void SetSolveExecutor(std::function<bool(ConferenceNode*)> executor) {
    solve_executor_ = std::move(executor);
  }
  // Loop thread: solves last_problem() into last_solution(), then
  // disseminates and records the solve trace. Skips dissemination if the
  // controller crashed while the solve was queued.
  void RunDeferredSolve();
  // Host notification that an accepted solve was displaced from the queue
  // before running (a higher-priority request took its slot): clears the
  // in-flight flag and re-arms the event trigger so the orchestration
  // happens at a later tick instead of vanishing.
  void OnSolveShed() {
    solve_in_flight_ = false;
    ++solves_shed_;
    event_pending_ = true;
  }
  bool solve_in_flight() const { return solve_in_flight_; }
  // Solve requests the executor refused (load shed); each re-arms the
  // event trigger rather than dropping the orchestration on the floor.
  int solves_shed() const { return solves_shed_; }

  // --- Crash / restart (sim::CrashableProcess) ----------------------------
  // Crash wipes the volatile global picture: bandwidth reports, pending
  // GTBR configs, node heartbeats. Signaling state (membership, SSRC
  // assignments, subscriptions) survives — it is modeled as durably
  // replicated, which is what lets Restart() reconstruct from reports
  // alone. While dead, all report/ack/heartbeat ingress is dropped and
  // Tick() does nothing.
  void Crash() override;
  // Revives the controller in `reconstructing` state: it re-collects
  // reports, bumps the solve epoch, and only orchestrates once the picture
  // is complete (or kReconstructTimeout passes), with re-solve damping.
  void Restart() override;
  bool alive() const override { return alive_; }
  std::string process_name() const override { return "controller"; }

  // --- Accessing-node health / failover -----------------------------------
  // Liveness signal from an accessing node (sent on its RTCP tick).
  void OnNodeHeartbeat(NodeId node);
  // Invoked (from Tick) with the id of a node declared dead; the handler
  // (the Conference harness) re-homes that node's participants.
  void SetNodeFailureHandler(std::function<void(NodeId)> handler) {
    node_failure_handler_ = std::move(handler);
  }
  // Moves `client` to `new_node`: releases its old SSRCs, allocates and
  // registers fresh ones (the allocator is monotonic, so they can never
  // collide with SSRCs still referenced by in-flight closures), and
  // reconfigures the client. Returns the old SSRCs so the caller can purge
  // them from every surviving node's forwarding/RTX state.
  std::vector<Ssrc> ReHome(ClientId client, AccessingNode* new_node);

  // --- Introspection ------------------------------------------------------
  int member_count() const { return static_cast<int>(members_.size()); }
  int orchestration_count() const { return orchestration_count_; }
  // Most recent solve-to-solve intervals (a ring of the last
  // kCallIntervalHistory entries; older ones are overwritten in place, so
  // iteration order is not chronological). Every interval is also recorded
  // on the `control.solve.interval` series, which streams without a cap.
  const std::vector<TimeDelta>& call_intervals() const {
    return call_intervals_;
  }
  const core::Solution& last_solution() const { return last_solution_; }
  const core::OrchestrationProblem& last_problem() const {
    return last_problem_;
  }
  // Trace of the most recent solve (work counts + wall time).
  const core::SolveStats& last_orchestrator_stats() const {
    return last_solution_.stats;
  }
  // GTBR reliability counters (controller level, above node retransmission).
  uint32_t solve_epoch() const { return solve_epoch_; }
  int gtbr_retries() const { return gtbr_retries_; }
  int gtbr_timeouts() const { return gtbr_timeouts_; }
  int gtbr_stale_acks() const { return gtbr_stale_acks_; }
  int reports_aged_out() const { return reports_aged_out_; }
  // Publishers whose current config is still awaiting a GTBN.
  int pending_config_count() const {
    return static_cast<int>(pending_configs_.size());
  }
  // Robustness counters (crash/restart/failover arc).
  int crash_count() const { return crash_count_; }
  int restart_count() const { return restart_count_; }
  bool reconstructing() const { return reconstructing_; }
  TimeDelta last_reconstruction_latency() const {
    return last_reconstruction_latency_;
  }
  int resolves_after_restart() const { return resolves_after_restart_; }
  int rehomed_count() const { return rehomed_; }
  int node_failover_count() const { return node_failures_; }
  // All SSRCs currently assigned to `client` (camera + screen + audio);
  // empty if the client is not a member. Used by failover verification.
  std::vector<Ssrc> MemberSsrcs(ClientId client) const;

 private:
  struct Member {
    Client* client = nullptr;
    AccessingNode* node = nullptr;
    net::SimulcastInfo negotiated;
    std::vector<Ssrc> camera_ssrcs;
    std::vector<Ssrc> screen_ssrcs;
    Ssrc audio_ssrc;
    DataRate uplink_report;
    DataRate downlink_report;
    // When each report last arrived; reports older than kReportMaxAge
    // are treated as absent by BuildProblem.
    Timestamp uplink_report_time = Timestamp::Zero();
    Timestamp downlink_report_time = Timestamp::Zero();
  };

  // A disseminated stream configuration awaiting its GTBN ack.
  struct PendingConfig {
    uint32_t epoch = 0;
    std::vector<net::TmmbrEntry> entries;
    Timestamp last_sent;
    int retries = 0;
  };

  void Tick();
  void Orchestrate();
  // Shared tail of inline and deferred solves: dissemination + solve-trace
  // metric records, at the current virtual time.
  void FinishSolve();
  core::OrchestrationProblem BuildProblem();
  void Disseminate(const core::Solution& solution);
  void CheckPendingConfigs();
  void UpdateParticipantCounts();
  // Allocates + registers camera/screen/audio SSRCs for `member` (shared
  // between Join and ReHome).
  void AllocateAndRegisterStreams(Member& member);
  // While `reconstructing_`: finish (and run the post-restart solve) once
  // every member has post-restart reports, or the deadline passes.
  void MaybeFinishReconstruction();
  // Declares nodes dead after kNodeHeartbeatTimeout of silence and fires
  // the failure handler for each.
  void CheckNodeHealth();

  sim::EventLoop* loop_;
  ControllerConfig config_;
  StreamDirectory directory_;
  net::SsrcAllocator ssrc_allocator_;
  core::DpMckpSolver solver_;
  core::Orchestrator orchestrator_;
  core::BandwidthConditioner conditioner_;

  std::map<ClientId, Member> members_;
  std::map<ClientId, std::vector<core::Subscription>> subscriptions_;
  std::map<ClientId, PendingConfig> pending_configs_;
  std::optional<ClientId> speaker_;

  bool event_pending_ = true;  // first run happens asap
  Timestamp last_run_ = Timestamp::Zero();
  bool has_run_ = false;
  int orchestration_count_ = 0;
  uint32_t solve_epoch_ = 0;
  int gtbr_retries_ = 0;
  int gtbr_timeouts_ = 0;
  int gtbr_stale_acks_ = 0;
  int reports_aged_out_ = 0;
  // Crash/restart state.
  bool alive_ = true;
  bool reconstructing_ = false;
  Timestamp restarted_at_ = Timestamp::Zero();
  // Event-triggered solves are suppressed until this time (set when
  // reconstruction completes); Timestamp::Zero() means no damping.
  Timestamp damping_until_ = Timestamp::Zero();
  bool post_restart_window_ = false;
  int crash_count_ = 0;
  int restart_count_ = 0;
  int resolves_after_restart_ = 0;
  TimeDelta last_reconstruction_latency_ = TimeDelta::Zero();
  // Accessing-node health.
  std::map<NodeId, Timestamp> node_heartbeats_;
  // Grace floor for nodes that have never heartbeated (set at Start and at
  // Restart, so a node that died during the controller's own outage is
  // still detected once the controller is back).
  Timestamp node_health_baseline_ = Timestamp::Zero();
  std::set<NodeId> failed_nodes_;
  std::function<void(NodeId)> node_failure_handler_;
  int rehomed_ = 0;
  int node_failures_ = 0;
  // Sized so every existing bench/test horizon keeps its complete history
  // (fig12 runs 600 s at a >= 1 s cadence ~= 600 entries) while a soak
  // that runs for days stays bounded. Stored as a reserve-once ring —
  // steady-state recording never touches the allocator, which the soak's
  // hour-over-hour live-allocation gate relies on.
  static constexpr size_t kCallIntervalHistory = 2048;
  std::vector<TimeDelta> call_intervals_;
  size_t call_interval_next_ = 0;
  // Solve-trace series; null when no registry is attached (recording is
  // then a single branch per site — see obs::Record).
  obs::Metric* metric_interval_ = nullptr;
  obs::Metric* metric_iterations_ = nullptr;
  obs::Metric* metric_knapsacks_ = nullptr;
  obs::Metric* metric_reductions_ = nullptr;
  obs::Metric* metric_wall_ = nullptr;
  obs::Metric* metric_dirty_ = nullptr;
  obs::Metric* metric_cache_hits_ = nullptr;
  obs::Metric* metric_participants_ = nullptr;
  obs::Metric* metric_gtbr_retries_ = nullptr;
  obs::Metric* metric_gtbr_timeouts_ = nullptr;
  obs::Metric* metric_gtbr_stale_ = nullptr;
  obs::Metric* metric_reports_aged_ = nullptr;
  obs::Metric* metric_crashes_ = nullptr;
  obs::Metric* metric_restarts_ = nullptr;
  obs::Metric* metric_reconstruct_latency_ = nullptr;
  obs::Metric* metric_resolves_after_restart_ = nullptr;
  obs::Metric* metric_rehomed_ = nullptr;
  obs::Metric* metric_failovers_ = nullptr;
  core::Solution last_solution_;
  core::OrchestrationProblem last_problem_;
  bool started_ = false;
  // Deferred-solve state (service mode; see SetSolveExecutor).
  std::function<bool(ConferenceNode*)> solve_executor_;
  bool solve_in_flight_ = false;
  int solves_shed_ = 0;
};

}  // namespace gso::conference

#endif  // GSO_CONFERENCE_CONFERENCE_NODE_H_
