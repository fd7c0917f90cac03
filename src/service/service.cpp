#include "service/service.h"

#include <algorithm>
#include <array>
#include <thread>

#include "common/fnv.h"
#include "common/logging.h"

namespace gso::service {
namespace {

// Virtual-time slice between solve-batch drains; also the granularity at
// which metrics are sampled and control-plane events fire.
constexpr TimeDelta kSlice = TimeDelta::Millis(200);
// Cross-shard rebalancing moves at most this many conferences per pass,
// then the source shard cools down (see ServiceConfig::rebalance_min_gap).
constexpr int kRebalanceMaxMoves = 2;
constexpr TimeDelta kRebalanceCooldown = TimeDelta::Seconds(5);
// Safety margin added to a crashed conference's recorded SSRC frontier
// when rebuilding: the record is up to one slice stale, so the margin must
// exceed any single-slice allocation burst (a slice is 200 ms; even a full
// re-home of an 8-member meeting allocates well under 100).
constexpr uint32_t kSsrcFrontierSlack = 1024;

}  // namespace

OrchestrationService::OrchestrationService(const ServiceConfig& config)
    : config_(config) {
  GSO_CHECK(config_.num_shards >= 1);
  GSO_CHECK(config_.max_conferences >= 1);
  GSO_CHECK_EQ(config_.solver_threads_per_shard, 1);
  for (int i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, config_.solve_backlog));
  }
  shard_alive_.assign(static_cast<size_t>(config_.num_shards), true);
  last_rebalance_.assign(static_cast<size_t>(config_.num_shards),
                         Timestamp::Zero());
  recovery_us_.SetCapacity(8192);

  control_faults_ = std::make_unique<sim::FaultPlan>(&control_loop_);
  gossip_ = std::make_unique<GossipFabric>(
      &control_loop_, config_.num_shards, config_.gossip, [this](int index) {
        // Read at send time on the main thread; the shards are quiescent
        // whenever the control loop runs.
        Shard& shard = *shards_[static_cast<size_t>(index)];
        ShardLoadSample sample;
        sample.occupancy = static_cast<uint32_t>(shard.conference_count());
        sample.queue_depth = static_cast<uint32_t>(shard.queue_depth());
        sample.queue_p99_us = shard.queue_stats().queue_latency_us.Percentile(99);
        return sample;
      });
  gossip_->Start();

  if (config_.metrics != nullptr) WireMetrics();
}

OrchestrationService::~OrchestrationService() = default;

std::optional<uint64_t> OrchestrationService::Admit(
    const ConferenceSpec& spec) {
  // Least-loaded live shard, lowest index on ties: deterministic placement.
  // Dead and restart-pending shards are skipped — they cannot host.
  const int best = LeastLoadedLiveShard(/*excluding=*/-1);
  if (best < 0) {
    // Whole fleet dark: nothing to even charge the rejection to.
    ++rejected_;
    return std::nullopt;
  }
  int alive_count = 0;
  for (const auto& shard : shards_) alive_count += shard->alive() ? 1 : 0;
  // Graceful degradation while under-capacity: with k of N shards up, the
  // service only accepts k/N of its full load instead of overcommitting
  // the survivors (which would trade everyone's QoE for admission count).
  const int capacity = static_cast<int>(
      static_cast<int64_t>(config_.max_conferences) * alive_count /
      config_.num_shards);
  if (conference_count() >= std::max(capacity, 1)) {
    ++rejected_;
    shards_[static_cast<size_t>(best)]->RecordAdmissionRejection();
    return std::nullopt;
  }
  const uint64_t id = next_id_++;
  shards_[static_cast<size_t>(best)]->Host(id, spec);
  conference_shard_[id] = best;
  ++admitted_;
  // Seed the durable record from the just-built live object (exact
  // roster + frontier); the per-slice sweep keeps it ≤ one slice stale.
  ConferenceRecord record;
  record.spec = spec;
  conference::Conference* conf = shards_[static_cast<size_t>(best)]->Get(id);
  record.roster = conf->member_ids();
  record.ssrc_frontier = conf->control().ssrc_allocator().next_value();
  records_[id] = std::move(record);
  return id;
}

void OrchestrationService::Remove(uint64_t id) {
  const auto it = conference_shard_.find(id);
  if (it == conference_shard_.end()) return;
  Shard& shard = *shards_[static_cast<size_t>(it->second)];
  // A meeting can end naturally while its shard is down and the failover
  // path has not yet re-homed it: fold its frozen outcome (deterministic —
  // the limbo object stopped at the crash instant) and account the gap.
  if (!shard.alive()) ++failover_.limbo_removed;
  shard.Remove(id);
  conference_shard_.erase(it);
  records_.erase(id);
}

void OrchestrationService::RunFor(TimeDelta duration) {
  const Timestamp end = now_ + duration;
  while (now_ < end) {
    const TimeDelta step = std::min(kSlice, end - now_);
    if (config_.parallel_shards && shards_.size() > 1) {
      std::vector<std::thread> threads;
      threads.reserve(shards_.size());
      for (auto& shard : shards_) {
        Shard* raw = shard.get();
        threads.emplace_back([raw, step] { raw->RunSlice(step); });
      }
      for (auto& thread : threads) thread.join();
    } else {
      for (auto& shard : shards_) shard->RunSlice(step);
    }
    now_ = now_ + step;
    // Control plane between slices, main thread, deterministic order:
    // gossip traffic and scripted shard faults fire on the control loop,
    // then liveness transitions propagate to the gossip agents, then
    // failover/rebalance mutate the fleet in shard-index order, then the
    // durable records refresh from the surviving live objects.
    control_loop_.RunUntil(now_);
    SyncGossipLiveness();
    ProcessFailovers();
    ProcessRebalance();
    UpdateRecords();
    // Shards are quiescent between slices: safe to touch the registry.
    if (config_.metrics != nullptr) config_.metrics->SampleProbes(now_);
  }
}

void OrchestrationService::SyncGossipLiveness() {
  for (int i = 0; i < num_shards(); ++i) {
    const bool alive = shards_[static_cast<size_t>(i)]->alive();
    if (alive == shard_alive_[static_cast<size_t>(i)]) continue;
    shard_alive_[static_cast<size_t>(i)] = alive;
    gossip_->SetAgentAlive(i, alive);
    if (!alive) ++failover_.shard_crashes;
  }
}

void OrchestrationService::ProcessFailovers() {
  for (int i = 0; i < num_shards(); ++i) {
    Shard& dead = *shards_[static_cast<size_t>(i)];
    if (dead.alive()) continue;
    // Detection: the service acts when a majority of live gossip agents
    // suspect the shard, or when its scripted restart is already pending
    // (the revival path must drain the limbo conferences anyway). The
    // suspicion is double-checked against ground truth (`!alive()`),
    // modeling the direct admin liveness probe a real deployment would
    // issue on suspicion — so false suspicions under gossip loss cost one
    // probe, never a spurious evacuation.
    const int observers = gossip_->AliveAgents();
    const bool suspected =
        observers > 0 && 2 * gossip_->SuspectCount(i) > observers;
    if (!suspected && !dead.restart_pending()) continue;
    const std::vector<uint64_t> victims = dead.hosted_ids();
    for (const uint64_t id : victims) {
      const int target = LeastLoadedLiveShard(/*excluding=*/i);
      if (target < 0) break;  // no surviving shard; stay in limbo
      const auto record_it = records_.find(id);
      GSO_CHECK(record_it != records_.end());
      ConferenceRecord& record = record_it->second;
      if (record.roster.size() < 2) {
        // Churn shrank the meeting below a viable rebuild just before the
        // crash; end it with its frozen outcome instead of re-homing.
        ++failover_.limbo_removed;
        dead.Remove(id);
        conference_shard_.erase(id);
        records_.erase(record_it);
        continue;
      }
      // The record is ≤ one slice stale; pad the frontier so the rebuilt
      // allocator provably starts past anything the lost incarnation
      // handed out — verified against the frozen object (ground truth the
      // service would not have in production, hence the slack).
      GSO_CHECK(record.ssrc_frontier + kSsrcFrontierSlack >=
                dead.Get(id)->control().ssrc_allocator().next_value());
      record.ssrc_frontier += kSsrcFrontierSlack;
      ++record.generation;
      MigrateTo(id, target);
      ++failover_.conferences_rehomed;
      recovery_us_.Add(static_cast<double>((now_ - dead.crashed_at()).us()));
    }
    if (dead.restart_pending() && dead.conference_count() == 0) {
      dead.CompleteRestart(now_);
      shard_alive_[static_cast<size_t>(i)] = true;
      gossip_->SetAgentAlive(i, true);
      ++failover_.shard_restarts;
    }
  }
}

void OrchestrationService::ProcessRebalance() {
  for (int i = 0; i < num_shards(); ++i) {
    Shard& source = *shards_[static_cast<size_t>(i)];
    if (!source.alive()) continue;
    if (now_ - last_rebalance_[static_cast<size_t>(i)] < kRebalanceCooldown) {
      continue;
    }
    // Steer by the gossiped views, not ground truth: shard i only knows
    // what its agent has heard, so a partitioned control plane degrades to
    // no rebalancing rather than to wrong rebalancing.
    int target = -1;
    uint32_t target_occupancy = 0;
    for (int j = 0; j < num_shards(); ++j) {
      if (j == i || !shards_[static_cast<size_t>(j)]->alive()) continue;
      const ShardView& view = gossip_->view(i, j);
      if (view.seq == 0 || view.suspected) continue;  // never heard / dark
      if (target < 0 || view.occupancy < target_occupancy) {
        target = j;
        target_occupancy = view.occupancy;
      }
    }
    if (target < 0) continue;
    const int own = source.conference_count();
    const int gap = own - static_cast<int>(target_occupancy);
    if (gap < config_.rebalance_min_gap) continue;
    const int moves = std::min(gap / 2, kRebalanceMaxMoves);
    const std::vector<uint64_t> hosted = source.hosted_ids();
    int moved = 0;
    for (const uint64_t id : hosted) {
      if (moved >= moves) break;
      conference::Conference* conf = source.Get(id);
      // Live migration reads exact state — no staleness, no slack.
      const auto record_it = records_.find(id);
      GSO_CHECK(record_it != records_.end());
      ConferenceRecord& record = record_it->second;
      record.roster = conf->member_ids();
      if (record.roster.size() < 2) continue;  // mid-churn; not movable
      record.ssrc_frontier = conf->control().ssrc_allocator().next_value();
      ++record.generation;
      MigrateTo(id, target);
      ++failover_.rebalance_migrations;
      ++moved;
    }
    if (moved > 0) last_rebalance_[static_cast<size_t>(i)] = now_;
  }
}

void OrchestrationService::MigrateTo(uint64_t id, int target) {
  const auto it = conference_shard_.find(id);
  GSO_CHECK(it != conference_shard_.end());
  const int source = it->second;
  GSO_CHECK(source != target);
  const ConferenceRecord& record = records_.at(id);
  // Build the replacement first, then discard the old incarnation: the
  // adopt path only reads the record, so the order is free — but adopting
  // first means a GSO_CHECK failure leaves the original intact for
  // post-mortem instead of having already destroyed it.
  shards_[static_cast<size_t>(target)]->Adopt(
      id, record.spec, record.roster, record.ssrc_frontier, record.generation);
  shards_[static_cast<size_t>(source)]->Discard(id);
  it->second = target;
}

void OrchestrationService::UpdateRecords() {
  // Write-through sweep: refresh every live conference's durable record at
  // the slice boundary. O(live members) per slice. Limbo conferences are
  // intentionally skipped — their records stay as-of the last boundary
  // before the crash, which is exactly the staleness the frontier slack
  // (and, in production, a real replicated store) must absorb.
  for (const auto& [id, index] : conference_shard_) {
    Shard& shard = *shards_[static_cast<size_t>(index)];
    if (!shard.alive()) continue;
    conference::Conference* conf = shard.Get(id);
    ConferenceRecord& record = records_.at(id);
    record.roster = conf->member_ids();
    record.ssrc_frontier = conf->control().ssrc_allocator().next_value();
  }
}

int OrchestrationService::LeastLoadedLiveShard(int excluding) const {
  int best = -1;
  for (int i = 0; i < num_shards(); ++i) {
    if (i == excluding) continue;
    const Shard& shard = *shards_[static_cast<size_t>(i)];
    if (!shard.alive()) continue;
    if (best < 0 || shard.conference_count() <
                        shards_[static_cast<size_t>(best)]->conference_count()) {
      best = i;
    }
  }
  return best;
}

conference::Conference* OrchestrationService::Get(uint64_t id) {
  const auto it = conference_shard_.find(id);
  if (it == conference_shard_.end()) return nullptr;
  Shard& shard = *shards_[static_cast<size_t>(it->second)];
  if (!shard.alive()) return nullptr;  // frozen in limbo
  return shard.Get(id);
}

sim::FaultPlan* OrchestrationService::fault_plan(uint64_t id) {
  const auto it = conference_shard_.find(id);
  if (it == conference_shard_.end()) return nullptr;
  Shard& shard = *shards_[static_cast<size_t>(it->second)];
  if (!shard.alive()) return nullptr;
  return shard.fault_plan(id);
}

std::vector<uint64_t> OrchestrationService::live_ids() const {
  std::vector<uint64_t> ids;
  ids.reserve(conference_shard_.size());
  for (const auto& [id, _] : conference_shard_) ids.push_back(id);
  return ids;
}

int OrchestrationService::conference_count() const {
  return static_cast<int>(conference_shard_.size());
}

double OrchestrationService::degraded_qoe_floor() const {
  double floor = 1.0;
  bool any = false;
  for (const auto& shard : shards_) {
    if (shard->degraded_qoe_samples() == 0) continue;
    if (!any || shard->degraded_qoe_floor() < floor) {
      floor = shard->degraded_qoe_floor();
    }
    any = true;
  }
  return floor;
}

FleetReport OrchestrationService::Report() {
  FleetReport report;
  report.live = conference_count();
  // Combines the shards' running outcome digests (each an FNV-1a fold, see
  // OutcomeAggregate::Fold) in shard index order into one fleet digest.
  uint64_t digest = kDigestSeed;
  double satisfaction_sum = 0;
  double video_sum = 0;
  double voice_sum = 0;
  double min_satisfaction = 0;
  std::array<uint64_t, OutcomeAggregate::kBuckets> histogram{};
  for (const auto& shard : shards_) {
    report.solves += shard->queue_stats().solved;
    report.solves_shed += shard->queue_stats().shed_rejected +
                          shard->queue_stats().shed_displaced;
    const OutcomeAggregate& aggregate = shard->aggregate();
    if (aggregate.completed > 0 &&
        (report.completed == 0 ||
         aggregate.min_satisfaction < min_satisfaction)) {
      min_satisfaction = aggregate.min_satisfaction;
    }
    report.completed += aggregate.completed;
    satisfaction_sum += aggregate.satisfaction_sum;
    video_sum += aggregate.video_sum;
    voice_sum += aggregate.voice_sum;
    for (int i = 0; i < OutcomeAggregate::kBuckets; ++i) {
      histogram[static_cast<size_t>(i)] +=
          aggregate.satisfaction_histogram[static_cast<size_t>(i)];
    }
    digest = HashBytes(digest, &aggregate.digest, sizeof(aggregate.digest));
  }
  if (report.completed > 0) {
    const double n = static_cast<double>(report.completed);
    report.mean_satisfaction = satisfaction_sum / n;
    report.mean_video_stall = video_sum / n;
    report.mean_voice_stall = voice_sum / n;
    report.min_satisfaction = min_satisfaction;
    // 5th-percentile floor from the merged histogram (nearest-rank, lower
    // bucket edge), clamped up to the exact min so floor <= p5 holds even
    // when the rank lands in the min's own bucket.
    const uint64_t rank = (static_cast<uint64_t>(report.completed) * 5 + 99) / 100;
    uint64_t seen = 0;
    double p5 = min_satisfaction;
    for (int i = 0; i < OutcomeAggregate::kBuckets; ++i) {
      seen += histogram[static_cast<size_t>(i)];
      if (seen >= rank) {
        p5 = std::max(min_satisfaction, static_cast<double>(i) /
                                            OutcomeAggregate::kBuckets);
        break;
      }
    }
    report.p5_satisfaction = p5;
  }
  report.digest = digest;
  return report;
}

void OrchestrationService::WireMetrics() {
  obs::MetricsRegistry* registry = config_.metrics;
  using obs::MetricKind;
  for (auto& shard_ptr : shards_) {
    Shard* shard = shard_ptr.get();
    const obs::Labels labels =
        obs::LabelShard(static_cast<uint32_t>(shard->index()));
    registry->AddProbe(
        registry->Get("service.shard.conferences", MetricKind::kGauge,
                      "conferences", labels),
        [shard] { return static_cast<double>(shard->conference_count()); });
    registry->AddProbe(
        registry->Get("service.shard.queue_depth", MetricKind::kGauge,
                      "requests", labels),
        [shard] { return static_cast<double>(shard->queue_depth()); });
    registry->AddProbe(
        registry->Get("service.shard.solves", MetricKind::kCounter, "solves",
                      labels),
        [shard] { return static_cast<double>(shard->queue_stats().solved); });
    registry->AddProbe(
        registry->Get("service.shard.shed", MetricKind::kCounter, "requests",
                      labels),
        [shard] {
          return static_cast<double>(shard->queue_stats().shed_rejected +
                                     shard->queue_stats().shed_displaced);
        });
    registry->AddProbe(
        registry->Get("service.shard.admission_rejected", MetricKind::kCounter,
                      "conferences", labels),
        [shard] { return static_cast<double>(shard->admission_rejected()); });
    registry->AddProbe(
        registry->Get("service.shard.solves_per_sec", MetricKind::kGauge,
                      "solves/s", labels),
        [shard] { return shard->solves_per_virtual_sec(); });
    registry->AddProbe(
        registry->Get("service.shard.queue_latency_p50", MetricKind::kGauge,
                      "us", labels),
        [shard] {
          return shard->queue_stats().queue_latency_us.Percentile(50);
        });
    registry->AddProbe(
        registry->Get("service.shard.queue_latency_p99", MetricKind::kGauge,
                      "us", labels),
        [shard] {
          return shard->queue_stats().queue_latency_us.Percentile(99);
        });
  }
  registry->AddProbe(
      registry->Get("service.admission.rejected", MetricKind::kCounter,
                    "conferences", {}),
      [this] { return static_cast<double>(rejected_); });
  registry->AddProbe(
      registry->Get("service.conferences", MetricKind::kGauge, "conferences",
                    {}),
      [this] { return static_cast<double>(conference_count()); });
  // Gossip plane: control-link health and the detector's raw inputs.
  registry->AddProbe(
      registry->Get("service.gossip.sent", MetricKind::kCounter, "summaries",
                    {}),
      [this] { return static_cast<double>(gossip_->stats().summaries_sent); });
  registry->AddProbe(
      registry->Get("service.gossip.delivered", MetricKind::kCounter,
                    "summaries", {}),
      [this] { return static_cast<double>(gossip_->stats().delivered); });
  registry->AddProbe(
      registry->Get("service.gossip.dropped", MetricKind::kCounter, "packets",
                    {}),
      [this] { return static_cast<double>(gossip_->PacketsDropped()); });
  registry->AddProbe(
      registry->Get("service.gossip.retries", MetricKind::kCounter,
                    "retransmits", {}),
      [this] { return static_cast<double>(gossip_->stats().retries); });
  registry->AddProbe(
      registry->Get("service.gossip.timeouts", MetricKind::kCounter,
                    "summaries", {}),
      [this] { return static_cast<double>(gossip_->stats().timeouts); });
  registry->AddProbe(
      registry->Get("service.gossip.suspicions", MetricKind::kCounter,
                    "transitions", {}),
      [this] { return static_cast<double>(gossip_->stats().suspicions); });
  // Failure domains: the storm gates read these same numbers.
  registry->AddProbe(
      registry->Get("service.failover.shard_crashes", MetricKind::kCounter,
                    "crashes", {}),
      [this] { return static_cast<double>(failover_.shard_crashes); });
  registry->AddProbe(
      registry->Get("service.failover.shard_restarts", MetricKind::kCounter,
                    "restarts", {}),
      [this] { return static_cast<double>(failover_.shard_restarts); });
  registry->AddProbe(
      registry->Get("service.failover.rehomed", MetricKind::kCounter,
                    "conferences", {}),
      [this] { return static_cast<double>(failover_.conferences_rehomed); });
  registry->AddProbe(
      registry->Get("service.failover.rebalanced", MetricKind::kCounter,
                    "conferences", {}),
      [this] { return static_cast<double>(failover_.rebalance_migrations); });
  registry->AddProbe(
      registry->Get("service.failover.recovery_p99", MetricKind::kGauge, "us",
                    {}),
      [this] { return recovery_us_.Percentile(99); });
  registry->AddProbe(
      registry->Get("service.failover.degraded_qoe_floor", MetricKind::kGauge,
                    "satisfaction", {}),
      [this] { return degraded_qoe_floor(); });
}

}  // namespace gso::service
