#include "service/shard.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/fnv.h"
#include "common/logging.h"
#include "service/fleet_model.h"

namespace gso::service {
namespace {

// Meetings with at least this many participants rank as SolveClass::kLarge.
constexpr int kLargeMeetingThreshold = 6;

// Doubles hash by bit pattern so the digest is an exact-equality check,
// not an approximate one.
uint64_t HashDouble(uint64_t h, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return HashBytes(h, &bits, sizeof(bits));
}

}  // namespace

void OutcomeAggregate::Fold(const ConferenceOutcome& outcome) {
  if (completed == 0 || outcome.satisfaction < min_satisfaction) {
    min_satisfaction = outcome.satisfaction;
  }
  ++completed;
  satisfaction_sum += outcome.satisfaction;
  video_sum += outcome.video_stall;
  voice_sum += outcome.voice_stall;
  const int bucket = std::clamp(
      static_cast<int>(outcome.satisfaction * kBuckets), 0, kBuckets - 1);
  ++satisfaction_histogram[static_cast<size_t>(bucket)];
  digest = HashBytes(digest, &outcome.id, sizeof(outcome.id));
  digest =
      HashBytes(digest, &outcome.participants, sizeof(outcome.participants));
  digest = HashDouble(digest, outcome.video_stall);
  digest = HashDouble(digest, outcome.voice_stall);
  digest = HashDouble(digest, outcome.framerate);
  digest = HashDouble(digest, outcome.satisfaction);
  digest = HashBytes(digest, &outcome.solves, sizeof(outcome.solves));
}

Shard::Shard(int index, int solve_backlog)
    : index_(index), queue_(solve_backlog, &loop_) {}

Shard::~Shard() {
  // Teardown ordering: a shard destroyed with solves still queued must not
  // run or commit them — the service may be shutting down mid-batch.
  // Abandon sheds the batch back to the still-live conferences (their
  // owners are cancelled only when hosted_ is destroyed, below), so
  // destruction leaves no stray commits and no entry is ever dropped
  // without its conference either re-arming or dying with the shard.
  queue_.Abandon();
}

void Shard::Host(uint64_t id, const ConferenceSpec& spec) {
  GSO_CHECK(alive_);
  GSO_CHECK(hosted_.find(id) == hosted_.end());
  GSO_CHECK(spec.participants >= 2);

  conference::ConferenceConfig config;
  config.loop = &loop_;
  config.mode = spec.gso ? conference::ControlMode::kGso
                         : conference::ControlMode::kTemplate;
  config.seed = spec.seed;
  // No per-conference registry: the MetricsRegistry is not thread-safe and
  // slices run on shard threads; observability stays at the shard level
  // (service.shard.* probes sampled between slices).
  config.metrics = nullptr;
  // Shard-hosted meetings churn for hours: reap departed participants
  // once in-flight closures have drained instead of holding every Client
  // ever removed until the conference ends.
  config.departed_linger = TimeDelta::Seconds(30);

  Hosted hosted;
  hosted.spec = spec;
  hosted.conference = std::make_unique<conference::Conference>(config);
  hosted.plan = std::make_unique<sim::FaultPlan>(&loop_);

  conference::Conference* conf = hosted.conference.get();
  Rng draw(spec.seed);
  for (int i = 1; i <= spec.participants; ++i) {
    conference::ParticipantConfig pc;
    pc.client = conference::DefaultClient(static_cast<uint32_t>(i));
    pc.access = DrawAccess(draw);
    conf->AddParticipant(pc);
  }
  // Large meetings view peers as thumbnails plus one bigger view, small
  // meetings use full resolution — approximated by a resolution cap.
  conf->SubscribeAllCameras(spec.participants <= 4 ? kResolution720p
                                                   : kResolution360p);

  WireAndStart(id, std::move(hosted), /*reconstructing=*/false);
}

void Shard::Adopt(uint64_t id, const ConferenceSpec& spec,
                  const std::vector<ClientId>& roster, uint32_t ssrc_frontier,
                  uint64_t generation) {
  GSO_CHECK(alive_);
  GSO_CHECK(hosted_.find(id) == hosted_.end());
  GSO_CHECK(roster.size() >= 2);

  conference::ConferenceConfig config;
  config.loop = &loop_;
  config.mode = spec.gso ? conference::ControlMode::kGso
                         : conference::ControlMode::kTemplate;
  config.seed = spec.seed;
  config.metrics = nullptr;
  config.departed_linger = TimeDelta::Seconds(30);
  // The never-reissued guarantee spans the migration: the rebuilt
  // controller's allocator starts past everything the old incarnation
  // could have handed out.
  config.controller.first_ssrc = ssrc_frontier;

  Hosted hosted;
  hosted.spec = spec;
  hosted.conference = std::make_unique<conference::Conference>(config);
  hosted.plan = std::make_unique<sim::FaultPlan>(&loop_);

  conference::Conference* conf = hosted.conference.get();
  // Same ids as the lost incarnation (the roster is signaling state,
  // durably replicated); access draws are re-seeded per generation — the
  // original draw sequence is unrecoverable once churn has reshaped the
  // roster, and mixing the generation in keeps repeat migrations distinct
  // yet bit-deterministic.
  Rng draw(spec.seed ^ (generation * 0x9e3779b97f4a7c15ull));
  for (const ClientId client : roster) {
    conference::ParticipantConfig pc;
    pc.client = conference::DefaultClient(client.value());
    pc.access = DrawAccess(draw);
    conf->AddParticipant(pc);
  }
  conf->SubscribeAllCameras(roster.size() <= 4 ? kResolution720p
                                               : kResolution360p);

  ++adopted_;
  WireAndStart(id, std::move(hosted), /*reconstructing=*/true);
}

void Shard::WireAndStart(uint64_t id, Hosted hosted, bool reconstructing) {
  // The executor routes this conference's orchestrations through the
  // shard's batched queue; Classify re-ranks at every submission, so a
  // conference entering a fault episode jumps to the degraded class.
  Hosted* slot = &(hosted_[id] = std::move(hosted));
  conference::Conference* owned = slot->conference.get();
  owned->control().SetSolveExecutor(
      [this, slot, owned](conference::ConferenceNode* node) {
        return queue_.Push(node, Classify(*slot, node), owned->owner());
      });

  // Start under the conference's owner (Start self-scopes, but the timers
  // below are scheduled by us, the host).
  owned->Start();
  const sim::EventLoop::OwnerScope scope(&loop_, owned->owner());
  if (!reconstructing) {
    // Exclude the join/BWE ramp-up from the steady-state QoE outcome.
    loop_.After(TimeDelta::Seconds(5),
                [owned] { owned->MarkMeasurementStart(); });
    return;
  }
  // Adopted after a crash: the fresh controller immediately enters the
  // PR 4 reconstruction path — volatile picture gone, signaling intact —
  // so its clients degrade to the template-policy floor until it has
  // re-collected reports. Near the end of that window, sample the QoE the
  // clients actually rode (the degraded floor the failover gates check),
  // then restart the measurement so the folded outcome covers
  // post-recovery steady state.
  owned->control().Crash();
  owned->control().Restart();
  loop_.After(TimeDelta::Seconds(4), [this, owned] {
    const auto report = owned->Report();
    const double qoe =
        Satisfaction(report.mean_video_stall_rate, report.mean_voice_stall_rate,
                     report.mean_framerate);
    if (degraded_qoe_samples_ == 0 || qoe < degraded_qoe_floor_) {
      degraded_qoe_floor_ = qoe;
    }
    ++degraded_qoe_samples_;
    owned->MarkMeasurementStart();
  });
}

void Shard::Remove(uint64_t id) {
  const auto it = hosted_.find(id);
  GSO_CHECK(it != hosted_.end());
  // Between slices the batch is drained; on a dead shard it was abandoned
  // at crash time. Either way nothing can be in flight for this node.
  GSO_CHECK(queue_.depth() == 0);

  Hosted& hosted = it->second;
  conference::Conference* conf = hosted.conference.get();
  const auto report = conf->Report();

  ConferenceOutcome outcome;
  outcome.id = id;
  outcome.participants = hosted.spec.participants;
  outcome.gso = hosted.spec.gso;
  outcome.video_stall = report.mean_video_stall_rate;
  outcome.voice_stall = report.mean_voice_stall_rate;
  outcome.framerate = report.mean_framerate;
  outcome.satisfaction = Satisfaction(outcome.video_stall,
                                      outcome.voice_stall, outcome.framerate);
  outcome.solves = conf->control().orchestration_count();
  outcome.solves_shed = conf->control().solves_shed();
  aggregate_.Fold(outcome);

  EraseHosted(id);
}

void Shard::Discard(uint64_t id) {
  GSO_CHECK(hosted_.find(id) != hosted_.end());
  GSO_CHECK(queue_.depth() == 0);
  EraseHosted(id);
}

void Shard::EraseHosted(uint64_t id) {
  // Destroying the conference cancels its owner: every queued closure —
  // media timers, metric-free probes, fault episodes scheduled on its
  // behalf — becomes a no-op.
  hosted_.erase(hosted_.find(id));

  // Periodically sweep the dead conferences' still-queued closures out of
  // the heap and recycle their owner ids; without this, hours of churn
  // accumulate skipped events and an ever-growing cancelled bitmap. Safe
  // here: removal runs between slices (no task in flight) and the erased
  // owners' components are destroyed above.
  if (++removals_ % 32 == 0) loop_.PurgeCancelled();
}

void Shard::RunSlice(TimeDelta slice) {
  if (!alive_) return;  // frozen: the whole domain is down
  loop_.RunFor(slice);
  // Slice boundary: the batch drains serially; commits land at the current
  // virtual instant, which models the solve's queueing delay (up to one
  // slice) deterministically.
  queue_.Drain();
}

void Shard::Crash() {
  if (!alive_) return;
  alive_ = false;
  restart_pending_ = false;
  crashed_at_ = loop_.Now();
  ++crashes_;
  // Solves queued at the crash instant die with the shard: shed them back
  // to their conferences (which are about to enter limbo — the re-armed
  // trigger matters only for the incarnation rebuilt elsewhere, whose
  // controller re-solves anyway; what matters here is that nothing runs
  // or commits on a dead domain).
  queue_.Abandon();
  GSO_LOG(kInfo) << process_name() << " crashed at " << crashed_at_.seconds()
                << "s with " << hosted_.size() << " conferences in limbo";
}

void Shard::Restart() {
  if (alive_) return;
  restart_pending_ = true;
}

void Shard::CompleteRestart(Timestamp fleet_now) {
  GSO_CHECK(!alive_);
  GSO_CHECK(restart_pending_);
  // A restarted shard comes back empty: the service discards the limbo
  // conferences (their replacements live elsewhere) before reviving it.
  GSO_CHECK(hosted_.empty());
  loop_.PurgeCancelled();
  // Fast-forward the frozen clock so the shard rejoins lock-step slices.
  // Every owner that could have queued work was cancelled and purged, so
  // this drains nothing but time.
  loop_.RunUntil(fleet_now);
  alive_ = true;
  restart_pending_ = false;
  ++restarts_;
  GSO_LOG(kInfo) << process_name() << " restarted at " << fleet_now.seconds()
                << "s";
}

conference::Conference* Shard::Get(uint64_t id) {
  const auto it = hosted_.find(id);
  return it == hosted_.end() ? nullptr : it->second.conference.get();
}

sim::FaultPlan* Shard::fault_plan(uint64_t id) {
  const auto it = hosted_.find(id);
  return it == hosted_.end() ? nullptr : it->second.plan.get();
}

std::vector<uint64_t> Shard::hosted_ids() const {
  std::vector<uint64_t> ids;
  ids.reserve(hosted_.size());
  for (const auto& [id, hosted] : hosted_) ids.push_back(id);
  return ids;
}

double Shard::solves_per_virtual_sec() const {
  const double elapsed = loop_.Now().seconds();
  if (elapsed <= 0) return 0;
  return static_cast<double>(queue_.stats().solved) / elapsed;
}

SolveClass Shard::Classify(const Hosted& hosted,
                           const conference::ConferenceNode* node) const {
  // Degraded first: a meeting inside an active fault episode (outage,
  // loss, crash window) needs its re-configuration soonest.
  if (hosted.plan->active_episodes() > 0) return SolveClass::kDegraded;
  if (node->member_count() >= kLargeMeetingThreshold) {
    return SolveClass::kLarge;
  }
  return SolveClass::kNormal;
}

}  // namespace gso::service
