#include "service/churn.h"

#include <algorithm>

#include "common/logging.h"
#include "conference/scenarios.h"
#include "service/fleet_model.h"

namespace gso::service {
namespace {

// Churn decision cadence: retire / backfill / wave checks every step.
constexpr TimeDelta kStep = TimeDelta::Seconds(1);

}  // namespace

ChurnStorm::ChurnStorm(OrchestrationService* service,
                       const ChurnConfig& config)
    : service_(service),
      config_(config),
      rng_(config.seed),
      next_wave_(service->Now() + config.wave_period) {}

void ChurnStorm::RunFor(TimeDelta duration) {
  const Timestamp end = service_->Now() + duration;
  while (service_->Now() < end) {
    Step();
    const TimeDelta step = std::min(kStep, end - service_->Now());
    service_->RunFor(step);
  }
  Step();  // final retire pass so Report() sees conferences that just ended
}

void ChurnStorm::Step() {
  Retire();
  TopUp();
  if (service_->Now() >= next_wave_ && !tracked_.empty()) {
    InjectWave();
    next_wave_ = next_wave_ + config_.wave_period;
    ++stats_.waves;
  }
}

void ChurnStorm::Retire() {
  const Timestamp now = service_->Now();
  for (auto it = tracked_.begin(); it != tracked_.end();) {
    if (it->second.ends_at <= now) {
      service_->Remove(it->first);
      ++stats_.leaves;
      it = tracked_.erase(it);
    } else {
      ++it;
    }
  }
}

void ChurnStorm::TopUp() {
  while (service_->conference_count() < config_.target_concurrent) {
    ConferenceSpec spec;
    spec.participants = DrawParticipants(rng_);
    spec.seed = rng_.NextUint64();
    const TimeDelta lifetime =
        config_.mean_lifetime * rng_.Uniform(0.5, 1.5);
    const std::optional<uint64_t> id = service_->Admit(spec);
    if (!id.has_value()) return;  // admission bound hit; counted there
    Tracked tracked;
    tracked.ends_at = service_->Now() + lifetime;
    for (int i = 1; i <= spec.participants; ++i) {
      tracked.live_clients.push_back(static_cast<uint32_t>(i));
    }
    tracked.next_client = static_cast<uint32_t>(spec.participants) + 1;
    tracked_[*id] = std::move(tracked);
    ++stats_.joins;
  }
}

void ChurnStorm::InjectWave() {
  const int live = static_cast<int>(tracked_.size());
  const int victims = std::max(
      1, static_cast<int>(config_.wave_fraction * static_cast<double>(live)));
  // Ids in a dense vector for deterministic random picks.
  std::vector<uint64_t> ids;
  ids.reserve(tracked_.size());
  for (const auto& [id, _] : tracked_) ids.push_back(id);
  for (int v = 0; v < victims; ++v) {
    const uint64_t id = ids[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
    const auto it = tracked_.find(id);
    if (it != tracked_.end()) InjectFault(id, it->second);
  }
}

void ChurnStorm::InjectFault(uint64_t id, Tracked& tracked) {
  conference::Conference* conf = service_->Get(id);
  sim::FaultPlan* plan = service_->fault_plan(id);
  if (conf == nullptr || plan == nullptr) return;
  // Re-sync belief with the live roster before picking victims: a re-homed
  // incarnation is rebuilt from a durable record that can miss a membership
  // change made after the last boundary sweep, so the tracked list may name
  // a client the rebuilt meeting never had (or miss one it does).
  tracked.live_clients.clear();
  for (const ClientId& member : conf->member_ids()) {
    tracked.live_clients.push_back(member.value());
  }
  const Timestamp start = service_->Now() + TimeDelta::Millis(100);

  switch (rng_.UniformInt(0, 3)) {
    case 0: {  // access-link flap on one participant
      if (tracked.live_clients.empty()) return;
      const ClientId victim(tracked.live_clients[static_cast<size_t>(
          rng_.UniformInt(0,
                          static_cast<int64_t>(tracked.live_clients.size()) -
                              1))]);
      if (conf->uplink(victim) == nullptr) return;
      const sim::EventLoop::OwnerScope scope(&conf->loop(), conf->owner());
      conference::ScheduleLinkFlap(*conf, *plan, victim, start,
                                   TimeDelta::Seconds(2));
      ++stats_.link_flaps;
      break;
    }
    case 1: {  // control-channel loss burst
      if (tracked.live_clients.empty()) return;
      const ClientId victim(tracked.live_clients[static_cast<size_t>(
          rng_.UniformInt(0,
                          static_cast<int64_t>(tracked.live_clients.size()) -
                              1))]);
      if (conf->uplink(victim) == nullptr) return;
      const sim::EventLoop::OwnerScope scope(&conf->loop(), conf->owner());
      conference::ScheduleControlChannelLoss(*conf, *plan, victim, start,
                                             TimeDelta::Seconds(3), 0.25);
      ++stats_.loss_episodes;
      break;
    }
    case 2: {  // controller crash + restart
      const sim::EventLoop::OwnerScope scope(&conf->loop(), conf->owner());
      conference::ScheduleControllerOutage(*conf, *plan, start,
                                           TimeDelta::Seconds(2));
      ++stats_.controller_outages;
      break;
    }
    case 3: {  // in-meeting participant churn: one leaves, one joins
      if (tracked.live_clients.size() <= 2) return;
      const size_t index = static_cast<size_t>(rng_.UniformInt(
          0, static_cast<int64_t>(tracked.live_clients.size()) - 1));
      const ClientId leaver(tracked.live_clients[index]);
      const ClientId joiner(tracked.next_client++);
      tracked.live_clients.erase(tracked.live_clients.begin() +
                                 static_cast<ptrdiff_t>(index));
      tracked.live_clients.push_back(joiner.value());
      // AddParticipant / RemoveParticipant self-scope to the conference's
      // owner, so no OwnerScope is needed here.
      conf->RemoveParticipant(leaver);
      conference::ParticipantConfig pc;
      pc.client = conference::DefaultClient(joiner.value());
      pc.access = DrawAccess(rng_);
      conf->AddParticipant(pc);
      conf->SubscribeAllCameras(tracked.live_clients.size() <= 4
                                    ? kResolution720p
                                    : kResolution360p);
      ++stats_.participant_churn;
      break;
    }
    default:
      break;
  }
}

}  // namespace gso::service
