// fleet_storm: one service::OrchestrationService with 4 shards (1 solver
// thread each, shards on parallel threads, so at most 4 threads run at
// once) under a seeded churn storm of ~200 concurrent 2-8-party meetings
// with fault waves. The only workload that exercises admission, the
// per-slice shard threads, the solve queue, gossip and churn teardown; the
// slowest shard sets each slice's time.
//
// The benchmark drives the churn itself (rather than service::ChurnStorm)
// so that it can time every Admit and Remove call from outside.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "bench.h"
#include "common/alloc_tracker.h"
#include "common/rng.h"
#include "conference/scenarios.h"
#include "obs/metrics.h"
#include "service/fleet_model.h"
#include "service/service.h"

namespace gso::perfbench {
namespace {

using service::OrchestrationService;

constexpr int kShards = 4;
constexpr int kTargetConcurrent = 200;
constexpr TimeDelta kSlice = TimeDelta::Millis(200);
constexpr TimeDelta kMeanLifetime = TimeDelta::Seconds(12);
constexpr TimeDelta kWavePeriod = TimeDelta::Seconds(5);
constexpr double kWaveFraction = 0.05;
// Set-up admits the full target, then runs this many slices so the first
// solves and BWE probes are behind the timed phase.
constexpr int kSetupSlices = 10;
// Checked span: the first 125 timed slices (25 virtual seconds). The
// digest, p5 satisfaction, failure counts and layer counts are read at
// its end, so they repeat exactly for a seed.
constexpr int kCheckedSlices = 125;

// Per-client counters read from outside: access-link stats and the
// client's receive path.
struct ClientTally {
  int64_t link_sent = 0;
  int64_t link_dropped = 0;
  int64_t downlink_sent = 0;
  int64_t frames_decoded = 0;
  int64_t frames_dropped = 0;

  ClientTally& operator+=(const ClientTally& o) {
    link_sent += o.link_sent;
    link_dropped += o.link_dropped;
    downlink_sent += o.downlink_sent;
    frames_decoded += o.frames_decoded;
    frames_dropped += o.frames_dropped;
    return *this;
  }
  ClientTally operator-(const ClientTally& o) const {
    ClientTally d = *this;
    d.link_sent -= o.link_sent;
    d.link_dropped -= o.link_dropped;
    d.downlink_sent -= o.downlink_sent;
    d.frames_decoded -= o.frames_decoded;
    d.frames_dropped -= o.frames_dropped;
    return d;
  }
};

int64_t Dropped(const sim::LinkStats& s) {
  return s.packets_dropped_queue + s.packets_dropped_loss +
         s.packets_dropped_down;
}

class Storm {
 public:
  Storm(uint64_t seed, bool traced) : rng_(seed * 0x9e3779b97f4a7c15ull + 505),
                                      traced_(traced) {
    service::ServiceConfig config;
    config.num_shards = kShards;
    config.solver_threads_per_shard = 1;
    config.parallel_shards = true;
    config.max_conferences = kTargetConcurrent;
    config.solve_backlog = 64;
    config.gossip.seed = seed;
    config.gossip.link.loss_rate = 0.02;  // exercises gossip retries
    if (traced_) {
      registry_ = std::make_unique<obs::MetricsRegistry>();
      config.metrics = registry_.get();
    }
    svc_ = std::make_unique<OrchestrationService>(config);
    next_wave_ = svc_->Now() + kWavePeriod;
  }

  OrchestrationService& svc() { return *svc_; }

  // Churn between slices: retire, top up, and every kWavePeriod a fault
  // wave on a seeded 5% of the live meetings.
  void Churn() {
    const Timestamp now = svc_->Now();
    for (auto it = ends_at_.begin(); it != ends_at_.end();) {
      if (it->second > now) {
        ++it;
        continue;
      }
      if (traced_) Observe(it->first);
      Forget(it->first);
      const auto begin = Clock::now();
      svc_->Remove(it->first);
      remove_us_.push_back(SecondsSince(begin) * 1e6);
      it = ends_at_.erase(it);
    }
    while (svc_->conference_count() < kTargetConcurrent) {
      service::ConferenceSpec spec;
      spec.participants = service::DrawParticipants(rng_);
      spec.seed = rng_.NextUint64();
      const TimeDelta lifetime = kMeanLifetime * rng_.Uniform(0.5, 1.5);
      ++admission_attempts_;
      const auto begin = Clock::now();
      const std::optional<uint64_t> id = svc_->Admit(spec);
      admit_us_.push_back(SecondsSince(begin) * 1e6);
      if (!id.has_value()) break;
      ends_at_[*id] = now + lifetime;
      next_client_[*id] = static_cast<uint32_t>(spec.participants) + 1;
    }
    if (now >= next_wave_ && !ends_at_.empty()) {
      std::vector<uint64_t> ids;
      for (const auto& [id, _] : ends_at_) ids.push_back(id);
      const int victims = std::max(
          1, static_cast<int>(kWaveFraction * static_cast<double>(ids.size())));
      for (int v = 0; v < victims; ++v) {
        InjectFault(ids[static_cast<size_t>(
            rng_.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))]);
      }
      next_wave_ = next_wave_ + kWavePeriod;
    }
  }

  // Samples every finished solve's wall time (Solution::stats) since the
  // previous call. Shards are quiescent between slices.
  void CollectSolves(std::vector<double>* solve_ms) {
    for (const auto& [id, _] : ends_at_) {
      conference::Conference* conf = svc_->Get(id);
      if (conf == nullptr) continue;
      const conference::ConferenceNode& node = conf->control();
      const int done = node.orchestration_count() - node.solves_shed() -
                       (node.solve_in_flight() ? 1 : 0);
      int& seen = solves_seen_[id];
      if (done > seen) {
        solve_ms->push_back(node.last_solution().stats.total_wall_us / 1e3);
        solve_wall_us_ += node.last_solution().stats.total_wall_us;
      }
      seen = std::max(seen, done);
    }
  }

  // Traced runs: fold every live meeting's counters into the totals.
  void ObserveAll() {
    for (const auto& [id, _] : ends_at_) Observe(id);
  }

  // Per-slice layer samples (traced runs).
  void SampleSlice() {
    size_t pending = 0;
    int lo = kTargetConcurrent, hi = 0;
    for (int s = 0; s < svc_->num_shards(); ++s) {
      pending = std::max(pending, svc_->shard(s).loop().pending_events());
      lo = std::min(lo, svc_->shard(s).conference_count());
      hi = std::max(hi, svc_->shard(s).conference_count());
    }
    pending_max_ = std::max(pending_max_, pending);
    imbalance_sum_ += hi - lo;
    ++imbalance_samples_;
    size_t nack = 0;
    for (const auto& [id, _] : ends_at_) {
      conference::Conference* conf = svc_->Get(id);
      if (conf == nullptr) continue;
      nack += conf->node(0)->table_sizes().nack_entries;
      for (const ClientId client : conf->member_ids()) {
        const conference::Client* c = conf->client(client);
        pacer_max_ = std::max(pacer_max_, c->pacer().queue_size());
        bwe_kbps_sum_ += c->uplink_estimate().kbps();
        ++bwe_samples_;
      }
    }
    nack_max_ = std::max(nack_max_, nack);
  }

  const ClientTally& totals() const { return totals_; }
  int64_t gtbr_retries() const { return gtbr_retries_; }
  int64_t gtbr_timeouts() const { return gtbr_timeouts_; }
  uint64_t admission_attempts() const { return admission_attempts_; }
  double solve_wall_us() const { return solve_wall_us_; }
  std::vector<double>& admit_us() { return admit_us_; }
  std::vector<double>& remove_us() { return remove_us_; }
  size_t pending_max() const { return pending_max_; }
  size_t nack_max() const { return nack_max_; }
  size_t pacer_max() const { return pacer_max_; }
  double bwe_kbps_mean() const {
    return bwe_kbps_sum_ / static_cast<double>(std::max<int64_t>(bwe_samples_, 1));
  }
  double imbalance_mean() const {
    return static_cast<double>(imbalance_sum_) /
           static_cast<double>(std::max<int64_t>(imbalance_samples_, 1));
  }

 private:
  void InjectFault(uint64_t id) {
    conference::Conference* conf = svc_->Get(id);
    sim::FaultPlan* plan = svc_->fault_plan(id);
    if (conf == nullptr || plan == nullptr) return;
    std::vector<ClientId> members = conf->member_ids();
    const Timestamp start = svc_->Now() + TimeDelta::Millis(100);
    const auto pick = [&] {
      return members[static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(members.size()) - 1))];
    };
    switch (rng_.UniformInt(0, 3)) {
      case 0: {  // access-link flap on one participant
        if (members.empty()) return;
        const ClientId victim = pick();
        const sim::EventLoop::OwnerScope scope(&conf->loop(), conf->owner());
        conference::ScheduleLinkFlap(*conf, *plan, victim, start,
                                     TimeDelta::Seconds(2));
        break;
      }
      case 1: {  // control-channel loss burst
        if (members.empty()) return;
        const ClientId victim = pick();
        const sim::EventLoop::OwnerScope scope(&conf->loop(), conf->owner());
        conference::ScheduleControlChannelLoss(*conf, *plan, victim, start,
                                               TimeDelta::Seconds(3), 0.25);
        break;
      }
      case 2: {  // controller crash + restart
        const sim::EventLoop::OwnerScope scope(&conf->loop(), conf->owner());
        conference::ScheduleControllerOutage(*conf, *plan, start,
                                             TimeDelta::Seconds(2));
        break;
      }
      default: {  // in-meeting churn: one participant leaves, one joins
        if (members.size() <= 2) return;
        const ClientId leaver = pick();
        if (traced_) Observe(id);
        conf->RemoveParticipant(leaver);
        conference::ParticipantConfig pc;
        pc.client = conference::DefaultClient(next_client_[id]++);
        pc.access = service::DrawAccess(rng_);
        conf->AddParticipant(pc);
        conf->SubscribeAllCameras(members.size() <= 4 ? kResolution720p
                                                      : kResolution360p);
        break;
      }
    }
  }

  // Drops the per-meeting bookkeeping of a retired meeting.
  void Forget(uint64_t id) {
    solves_seen_.erase(id);
    next_client_.erase(id);
    control_seen_.erase(id);
    seen_.erase(seen_.lower_bound({id, 0}), seen_.lower_bound({id + 1, 0}));
  }

  // Adds the counter growth of one meeting since it was last observed.
  // A departed participant's last partial slice is not seen; that loss is
  // deterministic, so the totals still repeat exactly for a seed.
  void Observe(uint64_t id) {
    conference::Conference* conf = svc_->Get(id);
    if (conf == nullptr) return;
    for (const ClientId client : conf->member_ids()) {
      const sim::Link* up = conf->uplink(client);
      const sim::Link* down = conf->downlink(client);
      const conference::Client* c = conf->client(client);
      if (up == nullptr || down == nullptr || c == nullptr) continue;
      ClientTally now;
      now.link_sent = up->stats().packets_sent + down->stats().packets_sent;
      now.link_dropped = Dropped(up->stats()) + Dropped(down->stats());
      now.downlink_sent = down->stats().packets_sent;
      now.frames_decoded = c->TotalFramesDecoded();
      now.frames_dropped = c->TotalFramesDropped();
      ClientTally& last = seen_[{id, client.value()}];
      totals_ += now - last;
      last = now;
    }
    const conference::ConferenceNode& node = conf->control();
    std::pair<int, int>& last = control_seen_[id];
    gtbr_retries_ += node.gtbr_retries() - last.first;
    gtbr_timeouts_ += node.gtbr_timeouts() - last.second;
    last = {node.gtbr_retries(), node.gtbr_timeouts()};
  }

  Rng rng_;
  bool traced_;
  // Traced runs only; declared before svc_ so that it outlives the service.
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<OrchestrationService> svc_;
  Timestamp next_wave_;
  std::map<uint64_t, Timestamp> ends_at_;
  std::map<uint64_t, uint32_t> next_client_;
  std::map<uint64_t, int> solves_seen_;
  uint64_t admission_attempts_ = 0;
  double solve_wall_us_ = 0.0;
  std::vector<double> admit_us_;
  std::vector<double> remove_us_;
  // Traced-run tallies.
  std::map<std::pair<uint64_t, uint32_t>, ClientTally> seen_;
  std::map<uint64_t, std::pair<int, int>> control_seen_;
  ClientTally totals_;
  int64_t gtbr_retries_ = 0;
  int64_t gtbr_timeouts_ = 0;
  size_t pending_max_ = 0;
  size_t nack_max_ = 0;
  size_t pacer_max_ = 0;
  double bwe_kbps_sum_ = 0.0;
  int64_t bwe_samples_ = 0;
  int64_t imbalance_sum_ = 0;
  int64_t imbalance_samples_ = 0;
};

struct ServiceCounts {
  uint64_t requests = 0;  // solve requests offered to the queues
  uint64_t solved = 0;
  uint64_t shed = 0;
  double queue_p99_ms = 0.0;
};

ServiceCounts CountService(OrchestrationService& svc) {
  ServiceCounts counts;
  for (int s = 0; s < svc.num_shards(); ++s) {
    service::SolveQueueStats& q = svc.shard(s).queue_stats();
    counts.requests += q.accepted + q.shed_rejected;
    counts.solved += q.solved;
    counts.shed += q.shed_rejected + q.shed_displaced + q.shed_abandoned;
    if (!q.queue_latency_us.empty()) {
      counts.queue_p99_ms =
          std::max(counts.queue_p99_ms, q.queue_latency_us.Percentile(99) / 1e3);
    }
  }
  return counts;
}

}  // namespace

Result RunFleetStorm(const Options& options) {
  Result result;
  const bool traced = options.traced;

  std::vector<double> setup_s;
  std::unique_ptr<Storm> storm;
  for (int i = 0; i < kSetupRepeats; ++i) {
    storm.reset();
    const auto start = Clock::now();
    storm = std::make_unique<Storm>(options.seed, traced);
    for (int s = 0; s < kSetupSlices; ++s) {
      storm->Churn();
      storm->svc().RunFor(kSlice);
    }
    setup_s.push_back(SecondsSince(start));
  }
  OrchestrationService& svc = storm->svc();

  const ServiceCounts service_start = CountService(svc);
  const uint64_t rejected_start = svc.rejected();
  const uint64_t attempts_start = storm->admission_attempts();
  const service::GossipStats gossip_start = svc.gossip().stats();
  std::vector<double> discard;
  storm->CollectSolves(&discard);
  if (traced) storm->ObserveAll();
  const ClientTally tally_start = storm->totals();
  const int64_t retries_start = storm->gtbr_retries();
  const int64_t timeouts_start = storm->gtbr_timeouts();
  const double solve_wall_start = storm->solve_wall_us();
  storm->admit_us().clear();
  storm->remove_us().clear();

  std::vector<double> slice_ms;
  std::vector<double> solve_ms;
  ClientTally tally_checked;
  int64_t retries_checked = 0, timeouts_checked = 0;
  uint64_t shed_checked = 0, rejected_checked = 0;
  service::GossipStats gossip_checked;
  int64_t allocs = 0;
  const auto timed_begin = Clock::now();
  for (int slice = 0;; ++slice) {
    if (slice >= kCheckedSlices && slice_ms.size() >= MinSamplesFor(90) &&
        SecondsSince(timed_begin) >= options.seconds) {
      break;
    }
    // A step is the fleet's work for one slice: the churn between slices
    // (admissions, removals, fault scheduling) and the slice itself.
    const auto begin = Clock::now();
    storm->Churn();
    const int64_t allocs_before = alloc::total_allocations();
    svc.RunFor(kSlice);
    slice_ms.push_back(SecondsSince(begin) * 1e3);
    allocs += alloc::total_allocations() - allocs_before;
    storm->CollectSolves(&solve_ms);
    if (traced) {
      storm->ObserveAll();
      if (slice < kCheckedSlices) storm->SampleSlice();
    }
    if (slice + 1 == kCheckedSlices) {
      const service::FleetReport report = svc.Report();
      const ServiceCounts counts = CountService(svc);
      result.checks["satisfaction_p5"] = report.p5_satisfaction;
      result.checks["digest52"] = static_cast<double>(report.digest >> 12);
      result.checks["completed"] = report.completed;
      result.checks["solves"] =
          static_cast<double>(counts.solved - service_start.solved);
      const uint64_t requests = counts.requests - service_start.requests;
      const uint64_t attempts = storm->admission_attempts() - attempts_start;
      const uint64_t shed = counts.shed - service_start.shed;
      const uint64_t rejected = svc.rejected() - rejected_start;
      result.attempted = requests + attempts;
      result.failed = shed + rejected;
      result.checks["failed"] = static_cast<double>(result.failed);
      tally_checked = storm->totals() - tally_start;
      retries_checked = storm->gtbr_retries() - retries_start;
      timeouts_checked = storm->gtbr_timeouts() - timeouts_start;
      shed_checked = shed;
      rejected_checked = rejected;
      gossip_checked = svc.gossip().stats();
      if (report.completed == 0) result.Fail("fleet_storm: no meeting completed");
      if (svc.conference_count() < kTargetConcurrent * 9 / 10) {
        result.Fail("fleet_storm: target concurrency not sustained");
      }
      // The fleet benchmark's QoE floor: storm victims must recover.
      if (report.p5_satisfaction < 0.30) {
        result.Fail("fleet_storm: p5 satisfaction below the 0.30 floor");
      }
    }
  }
  double slice_wall_s = 0.0;
  for (const double ms : slice_ms) slice_wall_s += ms / 1e3;

  const double participants_per_slice = [&] {
    double total = 0;
    for (const uint64_t id : svc.live_ids()) {
      total += static_cast<double>(svc.Get(id)->member_ids().size());
    }
    return total;
  }();
  const double slice_p50 = Median(slice_ms);
  result.Report("setup_s", Median(setup_s), "s", setup_s.size());
  result.Report("step_p50_ms", slice_p50, "ms", slice_ms.size());
  result.Report("sim_speed",
                participants_per_slice * kSlice.seconds() / (slice_p50 / 1e3),
                "participant-s/s", slice_ms.size());
  result.Report("slice_p90_ms", Percentile(slice_ms, 90), "ms",
                slice_ms.size());
  result.Report("satisfaction_p5", result.checks["satisfaction_p5"], "score");
  result.Report("failed_ratio",
                static_cast<double>(result.failed) /
                    static_cast<double>(std::max<uint64_t>(result.attempted, 1)),
                "ratio", result.attempted);

  if (!traced) {
    result.Set("setup_s", Median(setup_s), "s", setup_s.size());
    result.Set("step_p50_ms", slice_p50, "ms", slice_ms.size());
    result.Set("step_p90_ms", Percentile(slice_ms, 90), "ms", slice_ms.size());
    result.Set("solve_p50_ms", Median(solve_ms), "ms", solve_ms.size());
    result.Set("solve_p90_ms", Percentile(solve_ms, 90), "ms", solve_ms.size());
    result.Set("qoe", result.checks["satisfaction_p5"], "score");
    return result;
  }

  const ClientTally timed = storm->totals() - tally_start;
  const double forwarded = static_cast<double>(timed.downlink_sent);
  const double controller_wall_s =
      (storm->solve_wall_us() - solve_wall_start) / 1e6;
  const ServiceCounts counts = CountService(svc);
  result.Set("sim.link.packets_sent",
             static_cast<double>(tally_checked.link_sent), "count");
  result.Set("sim.link.dropped", static_cast<double>(tally_checked.link_dropped),
             "count");
  result.Set("sim.loop.pending_events_max",
             static_cast<double>(storm->pending_max()), "count");
  result.Set("sfu.packets_forwarded",
             static_cast<double>(tally_checked.downlink_sent), "count");
  result.Set("sfu.nack_entries_max", static_cast<double>(storm->nack_max()),
             "count");
  // Shards run in parallel, so the controller's share of a slice is its
  // wall time spread over the shard threads.
  result.Set("sfu.wall_ns_per_forwarded_packet",
             (slice_wall_s - controller_wall_s / kShards) * 1e9 / forwarded,
             "ns");
  result.Set("sfu.allocs_per_forwarded_packet",
             static_cast<double>(allocs) / forwarded, "count");
  result.Set("transport.pacer_queue_max",
             static_cast<double>(storm->pacer_max()), "count");
  result.Set("transport.bwe_target_kbps_mean", storm->bwe_kbps_mean(), "kbps");
  result.Set("media.frames_decoded",
             static_cast<double>(tally_checked.frames_decoded), "count");
  result.Set("media.frames_dropped",
             static_cast<double>(tally_checked.frames_dropped), "count");
  result.Set("control.solves", result.checks["solves"], "count");
  result.Set("control.gtbr_retries", static_cast<double>(retries_checked),
             "count");
  result.Set("control.gtbr_timeouts", static_cast<double>(timeouts_checked),
             "count");
  result.Set("control.solve_wall_share",
             controller_wall_s / (slice_wall_s * kShards), "ratio");
  std::vector<double>& admit = storm->admit_us();
  std::vector<double>& remove = storm->remove_us();
  result.Set("service.admit_us_p50", Median(admit), "us", admit.size());
  result.Set("service.admit_us_p99", Percentile(admit, 99), "us", admit.size());
  result.Set("service.remove_us_p50", Median(remove), "us", remove.size());
  result.Set("service.remove_us_p99", Percentile(remove, 99), "us",
             remove.size());
  result.Set("service.queue_latency_p99_ms", counts.queue_p99_ms, "ms");
  result.Set("service.solves", result.checks["solves"], "count");
  result.Set("service.shed", static_cast<double>(shed_checked), "count");
  result.Set("service.rejected", static_cast<double>(rejected_checked),
             "count");
  result.Set("service.gossip.retries",
             static_cast<double>(gossip_checked.retries - gossip_start.retries),
             "count");
  result.Set("service.gossip.timeouts",
             static_cast<double>(gossip_checked.timeouts - gossip_start.timeouts),
             "count");
  result.Set("service.shard_imbalance_mean", storm->imbalance_mean(), "count");
  return result;
}

}  // namespace gso::perfbench
