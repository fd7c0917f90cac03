#include "conference/conference_node.h"

#include <algorithm>

#include "common/logging.h"

namespace gso::conference {
namespace {

// Event triggers never run a solve sooner than this after the previous one
// (paper §6, Fig. 12); kMaxCallInterval bounds the gap from above.
constexpr TimeDelta kMinCallInterval = TimeDelta::Seconds(1);
constexpr TimeDelta kTickPeriod = TimeDelta::Millis(200);
// Fraction of a conditioned bandwidth estimate the controller actually
// allocates: a little headroom keeps the links from sitting exactly at
// saturation, which would flap the delay-gradient detector.
constexpr double kUtilization = 0.95;
constexpr int kMaxSimulcastLayers = 3;
// Speaker-first and screen-share subscription weights (paper §4.4).
constexpr double kSpeakerPriority = 3.0;
constexpr double kScreenPriority = 4.0;
// GTBR reliability (paper §4.3 + §7 "Design for failure"). The accessing
// node already retransmits an unacknowledged GTBR on its RTCP tick; this
// layer sits above it: if the controller has seen no GTBN for a
// publisher's current config after kGtbrAckTimeout, it re-issues the config
// (fresh request id), up to kGtbrMaxRetries times, then declares the
// publisher unreachable and schedules a re-orchestration instead of
// stalling on a config nobody acked.
constexpr TimeDelta kGtbrAckTimeout = TimeDelta::Seconds(1);
constexpr int kGtbrMaxRetries = 5;
// Bandwidth reports older than this are treated as absent when building a
// problem: a report from before an outage says nothing about the link now,
// and trusting it would size streams against a dead estimate.
constexpr TimeDelta kReportMaxAge = TimeDelta::Seconds(10);
// An accessing node homing members that has not heartbeated (RTCP tick,
// 100 ms cadence) for this long is declared dead and its participants are
// re-homed through the failure handler.
constexpr TimeDelta kNodeHeartbeatTimeout = TimeDelta::Seconds(1);

}  // namespace

ConferenceNode::ConferenceNode(sim::EventLoop* loop, ControllerConfig config)
    : loop_(loop),
      config_(config),
      orchestrator_(&solver_),
      conditioner_(config.conditioner) {
  if (config_.first_ssrc != 0) {
    ssrc_allocator_.ReserveAtLeast(config_.first_ssrc);
  }
}

bool ConferenceNode::Join(Client* client, AccessingNode* node) {
  GSO_CHECK(client != nullptr && node != nullptr);
  const auto offer = client->BuildOffer();
  // Exercise the real SDP codec path: serialize the offer to text and
  // parse it back, as the production signaling channel would.
  const auto reparsed = net::SessionDescription::Parse(offer.Serialize());
  if (!reparsed) return false;
  const auto negotiation =
      net::NegotiateOffer(*reparsed, kMaxSimulcastLayers);
  if (!negotiation.accepted) return false;

  Member member;
  member.client = client;
  member.node = node;
  member.negotiated = negotiation.config;

  AllocateAndRegisterStreams(member);
  client->ConfigureStreams(member.camera_ssrcs, member.screen_ssrcs,
                           member.audio_ssrc);
  members_[client->id()] = member;
  event_pending_ = true;  // membership change triggers orchestration
  UpdateParticipantCounts();
  return true;
}

void ConferenceNode::AllocateAndRegisterStreams(Member& member) {
  Client* client = member.client;
  // Allocate one SSRC per accepted camera layer (paper §4.2: an SSRC per
  // stream resolution so TMMBR can address layers individually).
  for (size_t i = 0; i < member.negotiated.layers.size(); ++i) {
    const auto& layer = member.negotiated.layers[i];
    const Ssrc ssrc = ssrc_allocator_.Allocate(
        {client->id(), net::MediaKind::kVideo, static_cast<int>(i)});
    member.camera_ssrcs.push_back(ssrc);
    StreamInfo info;
    info.ssrc = ssrc;
    info.owner = client->id();
    info.source = core::SourceKind::kCamera;
    info.layer_index = static_cast<int>(i);
    info.resolution = layer.resolution;
    info.max_bitrate = layer.max_bitrate;
    directory_.Register(info);
  }
  // Screen-share layers, if the client has a screen source.
  // GsoScreenLadder() returns by value: hold it for the whole loop.
  const std::vector<core::StreamOption> screen_ladder =
      client->GsoScreenLadder();
  for (size_t i = 0; i < screen_ladder.size(); ++i) {
    // One SSRC per distinct screen resolution.
    const auto& option = screen_ladder[i];
    bool seen = false;
    for (const auto& existing :
         directory_.LayersOf(client->id(), core::SourceKind::kScreen)) {
      if (existing.resolution == option.resolution) seen = true;
    }
    if (seen) continue;
    const Ssrc ssrc = ssrc_allocator_.Allocate(
        {client->id(), net::MediaKind::kScreenShare,
         static_cast<int>(member.screen_ssrcs.size())});
    member.screen_ssrcs.push_back(ssrc);
    StreamInfo info;
    info.ssrc = ssrc;
    info.owner = client->id();
    info.source = core::SourceKind::kScreen;
    info.layer_index = static_cast<int>(member.screen_ssrcs.size()) - 1;
    info.resolution = option.resolution;
    info.max_bitrate = option.bitrate;
    directory_.Register(info);
  }
  // Audio SSRC.
  member.audio_ssrc =
      ssrc_allocator_.Allocate({client->id(), net::MediaKind::kAudio, 0});
  StreamInfo audio_info;
  audio_info.ssrc = member.audio_ssrc;
  audio_info.owner = client->id();
  audio_info.is_audio = true;
  directory_.Register(audio_info);
}

void ConferenceNode::Leave(ClientId client) {
  const auto it = members_.find(client);
  if (it == members_.end()) return;

  // Collect every SSRC the departing member owned, then tear the member
  // down everywhere state referencing those SSRCs (or the client id) lives:
  // the directory, the allocator, other members' subscriptions, the
  // speaker slot, the outstanding GTBR config, and every accessing node's
  // media-plane tables. Anything left behind would resurface as a ghost
  // stream in the next compiled problem or a dangling forwarding entry.
  std::vector<Ssrc> ssrcs = it->second.camera_ssrcs;
  ssrcs.insert(ssrcs.end(), it->second.screen_ssrcs.begin(),
               it->second.screen_ssrcs.end());
  ssrcs.push_back(it->second.audio_ssrc);
  AccessingNode* home = it->second.node;
  for (Ssrc ssrc : ssrcs) {
    directory_.Unregister(ssrc);
    ssrc_allocator_.Release(ssrc);
  }
  members_.erase(it);

  // The leaver's own intents, and every other member's intent toward the
  // leaver: a subscription to a departed publisher must not survive into
  // the next BuildProblem.
  subscriptions_.erase(client);
  for (auto& [_, subs] : subscriptions_) {
    subs.erase(std::remove_if(subs.begin(), subs.end(),
                              [client](const core::Subscription& sub) {
                                return sub.source.client == client;
                              }),
               subs.end());
  }
  if (speaker_ && *speaker_ == client) speaker_.reset();
  pending_configs_.erase(client);

  // Media-plane teardown on every node (not just the home node: peers may
  // hold forwarding entries and caches for relayed streams).
  std::vector<AccessingNode*> nodes{home};
  for (const auto& [_, member] : members_) {
    if (std::find(nodes.begin(), nodes.end(), member.node) == nodes.end()) {
      nodes.push_back(member.node);
    }
  }
  for (AccessingNode* node : nodes) node->OnClientLeft(client, ssrcs);

  event_pending_ = true;
  UpdateParticipantCounts();
}

std::vector<Ssrc> ConferenceNode::MemberSsrcs(ClientId client) const {
  const auto it = members_.find(client);
  if (it == members_.end()) return {};
  std::vector<Ssrc> ssrcs = it->second.camera_ssrcs;
  ssrcs.insert(ssrcs.end(), it->second.screen_ssrcs.begin(),
               it->second.screen_ssrcs.end());
  ssrcs.push_back(it->second.audio_ssrc);
  return ssrcs;
}

std::vector<Ssrc> ConferenceNode::ReHome(ClientId client,
                                         AccessingNode* new_node) {
  GSO_CHECK(new_node != nullptr);
  const auto it = members_.find(client);
  if (it == members_.end()) return {};
  Member& member = it->second;

  // Release the old SSRCs first so the directory has no trace of them when
  // the fresh set registers. The allocator is monotonic — released values
  // are never reissued — so the new SSRCs cannot collide with old ones
  // still named by in-flight closures or a surviving node's tables.
  std::vector<Ssrc> old_ssrcs = MemberSsrcs(client);
  for (Ssrc ssrc : old_ssrcs) {
    directory_.Unregister(ssrc);
    ssrc_allocator_.Release(ssrc);
  }
  member.camera_ssrcs.clear();
  member.screen_ssrcs.clear();
  member.node = new_node;
  AllocateAndRegisterStreams(member);
  member.client->ConfigureStreams(member.camera_ssrcs, member.screen_ssrcs,
                                  member.audio_ssrc);
  // The outstanding config named the old SSRCs; the post-failover solve
  // will issue a fresh one. Bandwidth reports are kept: the uplink estimate
  // is a property of the client's access link, not of the dead node.
  pending_configs_.erase(client);
  ++rehomed_;
  obs::Add(metric_rehomed_, loop_->Now(), 1.0);
  event_pending_ = true;
  return old_ssrcs;
}

void ConferenceNode::Crash() {
  if (!alive_) return;
  alive_ = false;
  ++crash_count_;
  obs::Add(metric_crashes_, loop_->Now(), 1.0);
  // Volatile state only: the global picture dies with the process. What
  // survives (members_, subscriptions_, directory_, allocator state) is the
  // durably-replicated signaling plane.
  pending_configs_.clear();
  node_heartbeats_.clear();
  failed_nodes_.clear();
  reconstructing_ = false;
  event_pending_ = false;
  for (auto& [_, member] : members_) {
    member.uplink_report = DataRate::Zero();
    member.downlink_report = DataRate::Zero();
    member.uplink_report_time = Timestamp::Zero();
    member.downlink_report_time = Timestamp::Zero();
  }
}

void ConferenceNode::Restart() {
  if (alive_) return;
  alive_ = true;
  ++restart_count_;
  obs::Add(metric_restarts_, loop_->Now(), 1.0);
  restarted_at_ = loop_->Now();
  reconstructing_ = !members_.empty();
  post_restart_window_ = true;
  damping_until_ = Timestamp::Zero();
  // A fresh epoch makes every post-restart GTBR distinguishable from
  // anything acked before the crash.
  ++solve_epoch_;
  // The pre-crash warm state describes a conference that no longer exists
  // (reports aged, members may have rehomed): drop it so the first
  // post-restart solve is a full re-solve against reconstructed reports.
  orchestrator_.ResetWarmState();
  // The dead window is not a call interval (paper Fig. 12 measures solve
  // cadence, not availability gaps).
  has_run_ = false;
  event_pending_ = true;
  node_health_baseline_ = loop_->Now();
}

void ConferenceNode::MaybeFinishReconstruction() {
  const Timestamp now = loop_->Now();
  bool complete = true;
  for (const auto& [_, member] : members_) {
    if (member.uplink_report_time <= restarted_at_ ||
        member.downlink_report_time <= restarted_at_) {
      complete = false;
      break;
    }
  }
  if (!complete && now - restarted_at_ < kReconstructTimeout) return;
  reconstructing_ = false;
  last_reconstruction_latency_ = now - restarted_at_;
  obs::Record(metric_reconstruct_latency_, now,
              static_cast<double>(last_reconstruction_latency_.us()));
  // Damping starts now: the first post-restart solve runs immediately,
  // then event triggers stay muted while clients reclaim from degraded
  // mode (each reclaim fires report events that would otherwise each earn
  // a solve).
  damping_until_ = now + kRestartDamping;
  Orchestrate();
}

void ConferenceNode::OnNodeHeartbeat(NodeId node) {
  if (!alive_) return;
  node_heartbeats_[node] = loop_->Now();
}

void ConferenceNode::CheckNodeHealth() {
  // Tick() only runs after Start(), which seeds node_health_baseline_ —
  // possibly with the virtual epoch (time 0) itself, so "not yet started"
  // cannot be encoded as a zero baseline.
  if (!node_failure_handler_) return;
  const Timestamp now = loop_->Now();
  std::set<NodeId> homes;
  for (const auto& [_, member] : members_) homes.insert(member.node->id());
  std::vector<NodeId> newly_failed;
  for (NodeId id : homes) {
    const auto hb = node_heartbeats_.find(id);
    const Timestamp last_heard =
        hb != node_heartbeats_.end() ? hb->second : node_health_baseline_;
    if (now - last_heard > kNodeHeartbeatTimeout) {
      if (failed_nodes_.insert(id).second) newly_failed.push_back(id);
    } else {
      // A heartbeat resumed: the node recovered on its own.
      failed_nodes_.erase(id);
    }
  }
  // Fire handlers after the scan: re-homing mutates members_.
  for (NodeId id : newly_failed) {
    ++node_failures_;
    obs::Add(metric_failovers_, now, 1.0);
    node_failure_handler_(id);
  }
}

void ConferenceNode::SetSubscriptions(
    ClientId subscriber, std::vector<core::Subscription> subscriptions) {
  subscriptions_[subscriber] = std::move(subscriptions);
  event_pending_ = true;
}

void ConferenceNode::SetSpeaker(std::optional<ClientId> speaker) {
  if (speaker_ == speaker) return;
  speaker_ = speaker;
  event_pending_ = true;
}

void ConferenceNode::SetMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metric_interval_ = metric_iterations_ = metric_knapsacks_ =
        metric_reductions_ = metric_wall_ = metric_dirty_ =
            metric_cache_hits_ = metric_participants_ = nullptr;
    metric_gtbr_retries_ = metric_gtbr_timeouts_ = metric_gtbr_stale_ =
        metric_reports_aged_ = nullptr;
    metric_crashes_ = metric_restarts_ = metric_reconstruct_latency_ =
        metric_resolves_after_restart_ = metric_rehomed_ = metric_failovers_ =
            nullptr;
    return;
  }
  metric_interval_ =
      registry->Get("control.solve.interval", obs::MetricKind::kSeries, "us");
  metric_iterations_ = registry->Get("control.solve.iterations",
                                     obs::MetricKind::kSeries, "count");
  metric_knapsacks_ = registry->Get("control.solve.knapsacks",
                                    obs::MetricKind::kSeries, "count");
  metric_reductions_ = registry->Get("control.solve.reductions",
                                     obs::MetricKind::kSeries, "count");
  metric_wall_ =
      registry->Get("control.solve.wall", obs::MetricKind::kSeries, "us");
  metric_dirty_ = registry->Get("control.solve.dirty_subscribers",
                                obs::MetricKind::kSeries, "count");
  metric_cache_hits_ = registry->Get("control.solve.cache_hits",
                                     obs::MetricKind::kSeries, "count");
  metric_participants_ = registry->Get("control.conference.participants",
                                       obs::MetricKind::kGauge, "count");
  metric_gtbr_retries_ = registry->Get("control.gtbr.retries",
                                       obs::MetricKind::kCounter, "count");
  metric_gtbr_timeouts_ = registry->Get("control.gtbr.timeouts",
                                        obs::MetricKind::kCounter, "count");
  metric_gtbr_stale_ = registry->Get("control.gtbr.stale_acks",
                                     obs::MetricKind::kCounter, "count");
  metric_reports_aged_ = registry->Get("control.reports.aged_out",
                                       obs::MetricKind::kCounter, "count");
  metric_crashes_ = registry->Get("gso.robustness.controller_crashes",
                                  obs::MetricKind::kCounter, "count");
  metric_restarts_ = registry->Get("gso.robustness.controller_restarts",
                                   obs::MetricKind::kCounter, "count");
  metric_reconstruct_latency_ =
      registry->Get("gso.robustness.reconstruction_latency",
                    obs::MetricKind::kSeries, "us");
  metric_resolves_after_restart_ =
      registry->Get("gso.robustness.resolves_after_restart",
                    obs::MetricKind::kCounter, "count");
  metric_rehomed_ = registry->Get("gso.robustness.rehomed_participants",
                                  obs::MetricKind::kCounter, "count");
  metric_failovers_ = registry->Get("gso.robustness.node_failovers",
                                    obs::MetricKind::kCounter, "count");
}

void ConferenceNode::Start() {
  GSO_CHECK(!started_);
  started_ = true;
  node_health_baseline_ = loop_->Now();
  loop_->Every(kTickPeriod, [this] {
    Tick();
    return true;
  });
}

void ConferenceNode::UpdateParticipantCounts() {
  for (auto& [_, member] : members_) {
    member.client->SetParticipantCount(static_cast<int>(members_.size()));
  }
}

void ConferenceNode::OnSembReport(ClientId client, DataRate uplink_estimate) {
  if (!alive_) return;  // a dead controller hears nothing
  const auto it = members_.find(client);
  if (it == members_.end()) return;
  const DataRate prev = it->second.uplink_report;
  it->second.uplink_report = uplink_estimate;
  it->second.uplink_report_time = loop_->Now();
  if (prev.IsZero() ||
      std::abs(uplink_estimate.bps() - prev.bps()) >
          static_cast<int64_t>(config_.event_threshold *
                               static_cast<double>(prev.bps()))) {
    event_pending_ = true;
  }
}

void ConferenceNode::OnDownlinkReport(ClientId client,
                                      DataRate downlink_estimate) {
  if (!alive_) return;
  const auto it = members_.find(client);
  if (it == members_.end()) return;
  const DataRate prev = it->second.downlink_report;
  it->second.downlink_report = downlink_estimate;
  it->second.downlink_report_time = loop_->Now();
  if (prev.IsZero() ||
      std::abs(downlink_estimate.bps() - prev.bps()) >
          static_cast<int64_t>(config_.event_threshold *
                               static_cast<double>(prev.bps()))) {
    event_pending_ = true;
  }
}

void ConferenceNode::OnGtbnAck(ClientId publisher, const net::GsoTmmbn& ack) {
  if (!alive_) return;
  const auto it = pending_configs_.find(publisher);
  if (it == pending_configs_.end()) return;  // already acked or superseded
  if (ack.epoch != it->second.epoch) {
    // An ack for a solve this config has replaced: accepting it would mark
    // the current (different) config delivered when the publisher may
    // still be applying the old one.
    ++gtbr_stale_acks_;
    obs::Add(metric_gtbr_stale_, loop_->Now(), 1.0);
    return;
  }
  pending_configs_.erase(it);
}

void ConferenceNode::CheckPendingConfigs() {
  const Timestamp now = loop_->Now();
  for (auto it = pending_configs_.begin(); it != pending_configs_.end();) {
    PendingConfig& pending = it->second;
    if (now - pending.last_sent < kGtbrAckTimeout) {
      ++it;
      continue;
    }
    const auto member = members_.find(it->first);
    if (member == members_.end()) {
      it = pending_configs_.erase(it);
      continue;
    }
    if (pending.retries >= kGtbrMaxRetries) {
      // Give up on this config and let the next orchestration produce a
      // fresh one from current reports, rather than retrying forever into
      // what is probably a dead control channel.
      ++gtbr_timeouts_;
      obs::Add(metric_gtbr_timeouts_, now, 1.0);
      event_pending_ = true;
      it = pending_configs_.erase(it);
      continue;
    }
    ++pending.retries;
    ++gtbr_retries_;
    obs::Add(metric_gtbr_retries_, now, 1.0);
    pending.last_sent = now;
    member->second.node->SendGsoTmmbr(it->first, pending.entries,
                                      pending.epoch);
    ++it;
  }
}

void ConferenceNode::Tick() {
  // A dead controller's timer keeps ticking (so Restart needs no
  // re-wiring) but the body is frozen.
  if (!alive_ || members_.empty()) return;
  if (reconstructing_) {
    MaybeFinishReconstruction();
    if (reconstructing_) return;  // still collecting the global picture
  }
  CheckPendingConfigs();
  CheckNodeHealth();
  const Timestamp now = loop_->Now();
  const TimeDelta since_last = now - last_run_;
  const bool time_trigger = !has_run_ || since_last >= kMaxCallInterval;
  // Post-restart damping mutes event triggers only: the time trigger still
  // bounds staleness at kMaxCallInterval.
  const bool event_trigger = event_pending_ &&
                             since_last >= kMinCallInterval &&
                             now >= damping_until_;
  if (!time_trigger && !event_trigger) return;
  Orchestrate();
}

void ConferenceNode::OrchestrateNow() {
  if (!alive_) return;
  Orchestrate();
}

void ConferenceNode::Orchestrate() {
  if (solve_in_flight_) {
    // One solve per conference at a time: re-arm the trigger so the next
    // tick after the commit picks it up.
    event_pending_ = true;
    return;
  }
  const Timestamp now = loop_->Now();
  if (has_run_) {
    if (call_intervals_.empty()) call_intervals_.reserve(kCallIntervalHistory);
    if (call_intervals_.size() < kCallIntervalHistory) {
      call_intervals_.push_back(now - last_run_);
    } else {
      call_intervals_[call_interval_next_] = now - last_run_;
      call_interval_next_ = (call_interval_next_ + 1) % kCallIntervalHistory;
    }
    obs::Record(metric_interval_, now,
                static_cast<double>((now - last_run_).us()));
  }
  last_run_ = now;
  has_run_ = true;
  event_pending_ = false;
  ++orchestration_count_;
  ++solve_epoch_;
  if (post_restart_window_) {
    // Count solves between a restart and the end of its damping window —
    // the "re-solve storm" the damping exists to bound.
    if (damping_until_ != Timestamp::Zero() && now > damping_until_) {
      post_restart_window_ = false;
    } else {
      ++resolves_after_restart_;
      obs::Add(metric_resolves_after_restart_, now, 1.0);
    }
  }

  last_problem_ = BuildProblem();
  if (solve_executor_) {
    // Service mode: hand the solve to the host's queue. On shed the
    // trigger is re-armed — the orchestration is deferred, not dropped.
    if (solve_executor_(this)) {
      solve_in_flight_ = true;
    } else {
      ++solves_shed_;
      event_pending_ = true;
    }
    return;
  }
  // Warm solve: the controller re-solves on every report/membership event,
  // and consecutive problems differ in a handful of subscribers — the
  // orchestrator diffs against its previous snapshot and re-runs Step 1
  // only for the dirty ones (bit-identical to a cold solve by contract).
  last_solution_ = orchestrator_.Solve(core::SolveRequest::Warm(last_problem_));
  FinishSolve();
}

void ConferenceNode::RunDeferredSolve() {
  GSO_CHECK(solve_in_flight_);
  last_solution_ = orchestrator_.Solve(core::SolveRequest::Warm(last_problem_));
  solve_in_flight_ = false;
  // Crashed while the solve was queued: the result describes a picture the
  // restarted controller no longer holds.
  if (!alive_) return;
  FinishSolve();
}

void ConferenceNode::FinishSolve() {
  const Timestamp now = loop_->Now();
  Disseminate(last_solution_);

  const core::SolveStats& stats = last_solution_.stats;
  obs::Record(metric_iterations_, now, stats.iterations);
  obs::Record(metric_knapsacks_, now, stats.knapsack_solves);
  obs::Record(metric_reductions_, now, stats.reductions);
  obs::Record(metric_wall_, now, stats.total_wall_us);
  obs::Record(metric_dirty_, now, stats.dirty_subscribers);
  obs::Record(metric_cache_hits_, now, stats.step1_cache_hits);
  obs::Record(metric_participants_, now,
              static_cast<double>(members_.size()));
}

core::OrchestrationProblem ConferenceNode::BuildProblem() {
  core::OrchestrationProblem problem;
  const int n = static_cast<int>(members_.size());
  const Timestamp now = loop_->Now();

  for (const auto& [client_id, member] : members_) {
    // Audio protection: one outgoing audio stream on the uplink and one
    // incoming per other participant on the downlink (paper §7).
    core::ClientBudget budget;
    budget.client = client_id;
    // A report that predates kReportMaxAge is stale — likely from
    // before an outage — and is treated exactly like a missing report:
    // fall back to the conservative join-time defaults.
    const bool uplink_stale =
        !member.uplink_report.IsZero() &&
        now - member.uplink_report_time > kReportMaxAge;
    const bool downlink_stale =
        !member.downlink_report.IsZero() &&
        now - member.downlink_report_time > kReportMaxAge;
    if (uplink_stale || downlink_stale) {
      reports_aged_out_ += (uplink_stale ? 1 : 0) + (downlink_stale ? 1 : 0);
      obs::Add(metric_reports_aged_, now,
               (uplink_stale ? 1.0 : 0.0) + (downlink_stale ? 1.0 : 0.0));
    }
    const DataRate uplink_raw =
        member.uplink_report.IsZero() || uplink_stale
            ? DataRate::KilobitsPerSec(300)
            : member.uplink_report;
    const DataRate downlink_raw =
        member.downlink_report.IsZero() || downlink_stale
            ? DataRate::KilobitsPerSec(500)
            : member.downlink_report;
    budget.uplink = conditioner_.Condition(
        static_cast<uint64_t>(client_id.value()) << 1,
        uplink_raw * kUtilization, 1);
    budget.downlink = conditioner_.Condition(
        (static_cast<uint64_t>(client_id.value()) << 1) | 1,
        downlink_raw * kUtilization, std::max(n - 1, 0));
    problem.budgets.push_back(budget);

    // Codec capability constraints from the negotiated simulcastInfo.
    core::SourceCapability camera;
    camera.source = {client_id, core::SourceKind::kCamera};
    camera.options = member.client->GsoCameraLadder();
    problem.capabilities.push_back(std::move(camera));
    if (!member.screen_ssrcs.empty()) {
      core::SourceCapability screen;
      screen.source = {client_id, core::SourceKind::kScreen};
      screen.options = member.client->GsoScreenLadder();
      problem.capabilities.push_back(std::move(screen));
    }
  }

  for (const auto& [subscriber, subs] : subscriptions_) {
    if (!members_.count(subscriber)) continue;
    for (auto sub : subs) {
      if (!members_.count(sub.source.client)) continue;
      // Speaker-first and screen-share priorities (paper §4.4).
      if (speaker_ && sub.source.client == *speaker_ &&
          sub.source.kind == core::SourceKind::kCamera) {
        sub.priority *= kSpeakerPriority;
      }
      if (sub.source.kind == core::SourceKind::kScreen) {
        sub.priority *= kScreenPriority;
      }
      problem.subscriptions.push_back(sub);
    }
  }
  return problem;
}

void ConferenceNode::Disseminate(const core::Solution& solution) {
  // Per publisher: one GTBR entry per layer SSRC (zero mantissa disables).
  std::map<Ssrc, std::vector<ClientId>> forwarding;

  for (const auto& [client_id, member] : members_) {
    std::vector<net::TmmbrEntry> entries;
    for (core::SourceKind kind :
         {core::SourceKind::kCamera, core::SourceKind::kScreen}) {
      const auto layers = directory_.LayersOf(client_id, kind);
      if (layers.empty()) continue;
      const auto published =
          solution.publish.find(core::SourceId{client_id, kind});
      for (const auto& layer : layers) {
        DataRate granted = DataRate::Zero();
        if (published != solution.publish.end()) {
          for (const auto& stream : published->second) {
            if (stream.resolution == layer.resolution) {
              granted = stream.bitrate;
              // Forwarding: this layer SSRC reaches the stream's receivers.
              auto& receivers = forwarding[layer.ssrc];
              for (const auto& receiver : stream.receivers) {
                if (std::find(receivers.begin(), receivers.end(),
                              receiver.subscriber) == receivers.end()) {
                  receivers.push_back(receiver.subscriber);
                }
              }
            }
          }
        }
        entries.push_back(
            {layer.ssrc, net::MxTbr::FromBitrate(granted)});
      }
    }
    if (!entries.empty()) {
      // Track the config until its GTBN arrives; CheckPendingConfigs
      // re-issues it on ack timeout. The epoch tags the solve so a late
      // ack for a superseded config can never clear this one.
      PendingConfig pending;
      pending.epoch = solve_epoch_;
      pending.entries = entries;
      pending.last_sent = loop_->Now();
      pending_configs_[client_id] = std::move(pending);
      member.node->SendGsoTmmbr(client_id, std::move(entries), solve_epoch_);
    } else {
      pending_configs_.erase(client_id);
    }
  }

  // Every accessing node gets the full table; each filters locally.
  std::vector<AccessingNode*> nodes;
  for (const auto& [_, member] : members_) {
    if (std::find(nodes.begin(), nodes.end(), member.node) == nodes.end()) {
      nodes.push_back(member.node);
    }
  }
  for (AccessingNode* node : nodes) node->SetForwarding(forwarding);
}

}  // namespace gso::conference
