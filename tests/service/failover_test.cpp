// Shard failure-domain tests: whole-shard crashes scripted on the control
// plane, gossip-driven detection, victim re-homing onto survivors, SSRC
// no-reissue across the rebuild, graceful admission degradation while the
// fleet is under-capacity, gossiped-load rebalancing, and bit-identical
// fleet digests across scheduling and gossip-seed choices.
#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "service/churn.h"
#include "service/service.h"

namespace gso::service {
namespace {

ServiceConfig FourShardConfig() {
  ServiceConfig config;
  config.num_shards = 4;
  config.max_conferences = 16;
  config.parallel_shards = false;
  return config;
}

TEST(Failover, ShardCrashRehomesEveryVictimOntoSurvivors) {
  OrchestrationService service(FourShardConfig());
  ConferenceSpec spec;
  spec.participants = 3;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    spec.seed = static_cast<uint64_t>(i + 1);
    ids.push_back(*service.Admit(spec));
  }
  service.RunFor(TimeDelta::Seconds(2));

  const std::vector<uint64_t> victims = service.shard(0).hosted_ids();
  ASSERT_EQ(victims.size(), 2u);
  // Frontier of every victim's allocator before the crash: nothing issued
  // by the lost incarnation may ever be issued again.
  std::map<uint64_t, uint32_t> old_frontier;
  for (const uint64_t id : victims) {
    old_frontier[id] =
        service.Get(id)->control().ssrc_allocator().next_value();
  }

  service.control_faults().ShardCrash(&service.shard(0),
                                      Timestamp::Seconds(3));
  service.RunFor(TimeDelta::Seconds(8));

  // The shard died, a majority of live gossip agents suspected it, and
  // every victim was rebuilt on a survivor.
  EXPECT_FALSE(service.shard(0).alive());
  EXPECT_EQ(service.shard(0).conference_count(), 0);
  EXPECT_EQ(service.failover().shard_crashes, 1u);
  EXPECT_EQ(service.failover().conferences_rehomed, victims.size());
  EXPECT_EQ(service.failover().limbo_removed, 0u);
  EXPECT_GE(service.gossip().stats().suspicions, 3u);
  EXPECT_EQ(service.conference_count(), 8);

  for (const uint64_t id : victims) {
    conference::Conference* conf = service.Get(id);
    ASSERT_NE(conf, nullptr) << "victim " << id << " not re-homed";
    // The rebuilt allocator starts at the recorded frontier plus the
    // staleness slack, so no SSRC the lost incarnation handed out can
    // ever be reissued; the roster re-allocation only moves it further.
    EXPECT_GE(conf->control().ssrc_allocator().next_value(),
              old_frontier[id] + 1024);
    for (const ClientId& member : conf->member_ids()) {
      for (const Ssrc ssrc : conf->control().MemberSsrcs(member)) {
        EXPECT_GE(ssrc.value(), old_frontier[id]);
      }
    }
  }

  // Recovery latency was recorded per victim: crash-to-rehome spans the
  // suspicion timeout plus at most a few slices.
  EXPECT_EQ(service.recovery_us().total_added(), victims.size());
  const double p99 = service.recovery_us().Percentile(99);
  EXPECT_GT(p99, 0.0);
  EXPECT_LT(p99, 5e6);
  // The victims rode the template floor through reconstruction; the
  // degraded-window QoE probe sampled them.
  EXPECT_GT(service.degraded_qoe_floor(), 0.0);
  EXPECT_LE(service.degraded_qoe_floor(), 1.0);
  int degraded_samples = 0;
  for (int i = 0; i < service.num_shards(); ++i) {
    degraded_samples += service.shard(i).degraded_qoe_samples();
  }
  EXPECT_EQ(degraded_samples, static_cast<int>(victims.size()));
}

TEST(Failover, TimedCrashRestartsShardEmptyAndItHostsAgain) {
  ServiceConfig config = FourShardConfig();
  config.num_shards = 2;
  config.max_conferences = 8;
  OrchestrationService service(config);
  ConferenceSpec spec;
  spec.participants = 3;
  for (int i = 0; i < 4; ++i) {
    spec.seed = static_cast<uint64_t>(i + 1);
    ASSERT_TRUE(service.Admit(spec).has_value());
  }
  service.control_faults().ShardCrash(&service.shard(1),
                                      Timestamp::Seconds(1),
                                      /*duration=*/TimeDelta::Seconds(3));
  service.RunFor(TimeDelta::Seconds(8));

  // The victims were evacuated during the outage, so the shard restarts
  // empty — reconstruction happened on the survivor, not in place.
  EXPECT_TRUE(service.shard(1).alive());
  EXPECT_EQ(service.shard(1).crashes(), 1u);
  EXPECT_EQ(service.shard(1).restarts(), 1u);
  EXPECT_EQ(service.shard(1).conference_count(), 0);
  EXPECT_EQ(service.shard(0).conference_count(), 4);
  EXPECT_EQ(service.failover().shard_crashes, 1u);
  EXPECT_EQ(service.failover().shard_restarts, 1u);
  EXPECT_EQ(service.failover().conferences_rehomed, 2u);
  EXPECT_GE(service.shard(0).adopted(), 2u);

  // The revived shard is the least-loaded host for the next admission.
  spec.seed = 99;
  ASSERT_TRUE(service.Admit(spec).has_value());
  EXPECT_EQ(service.shard(1).conference_count(), 1);
}

TEST(Failover, AdmissionDegradesWithLiveShardFraction) {
  ServiceConfig config = FourShardConfig();
  config.num_shards = 2;
  config.max_conferences = 4;
  OrchestrationService service(config);
  service.control_faults().ShardCrash(&service.shard(0),
                                      Timestamp::Millis(500));
  service.RunFor(TimeDelta::Seconds(3));
  ASSERT_FALSE(service.shard(0).alive());

  // Half the fleet is dark: effective capacity is half of max, and the
  // overflow rejection is charged to the would-be host's failure domain.
  ConferenceSpec spec;
  spec.seed = 1;
  ASSERT_TRUE(service.Admit(spec).has_value());
  spec.seed = 2;
  ASSERT_TRUE(service.Admit(spec).has_value());
  spec.seed = 3;
  EXPECT_FALSE(service.Admit(spec).has_value());
  EXPECT_EQ(service.rejected(), 1u);
  EXPECT_EQ(service.shard(1).admission_rejected(), 1u);

  // Reviving the shard restores full capacity.
  service.control_faults().ShardRestart(&service.shard(0),
                                        service.Now() + TimeDelta::Seconds(1));
  service.RunFor(TimeDelta::Seconds(2));
  EXPECT_TRUE(service.shard(0).alive());
  EXPECT_EQ(service.failover().shard_restarts, 1u);
  ASSERT_TRUE(service.Admit(spec).has_value());
  spec.seed = 4;
  ASSERT_TRUE(service.Admit(spec).has_value());
  EXPECT_EQ(service.conference_count(), 4);
  EXPECT_GT(service.shard(0).conference_count(), 0);
}

TEST(Failover, RebalanceMovesLoadTowardGossipedIdleShard) {
  ServiceConfig config = FourShardConfig();
  config.num_shards = 2;
  config.max_conferences = 8;
  config.rebalance_min_gap = 2;
  OrchestrationService service(config);
  ConferenceSpec spec;
  spec.participants = 3;
  for (int i = 0; i < 6; ++i) {
    spec.seed = static_cast<uint64_t>(i + 1);
    ASSERT_TRUE(service.Admit(spec).has_value());
  }
  service.RunFor(TimeDelta::Seconds(1));
  ASSERT_EQ(service.shard(1).conference_count(), 3);
  for (const uint64_t id : service.shard(1).hosted_ids()) {
    service.Remove(id);
  }

  // 3-vs-0 skew: once shard 0's agent has gossiped views of the idle peer
  // and its cooldown allows, it migrates conferences until the gap closes
  // below the threshold (one move closes 3-vs-0 to 2-vs-1).
  service.RunFor(TimeDelta::Seconds(9));
  EXPECT_EQ(service.failover().rebalance_migrations, 1u);
  EXPECT_EQ(service.shard(0).conference_count(), 2);
  EXPECT_EQ(service.shard(1).conference_count(), 1);
  EXPECT_EQ(service.conference_count(), 3);
  for (const uint64_t id : service.live_ids()) {
    EXPECT_NE(service.Get(id), nullptr);
  }
}

TEST(Failover, SuspicionWithoutCrashNeverEvacuates) {
  ServiceConfig config = FourShardConfig();
  config.num_shards = 2;
  config.max_conferences = 8;
  OrchestrationService service(config);
  ConferenceSpec spec;
  spec.seed = 1;
  ASSERT_TRUE(service.Admit(spec).has_value());
  spec.seed = 2;
  ASSERT_TRUE(service.Admit(spec).has_value());
  service.RunFor(TimeDelta::Seconds(1));

  // Blackhole shard 0's egress: its peer stops hearing it and suspects it,
  // but suspicion alone (the shard is alive — the liveness probe clears
  // it) must never trigger an evacuation.
  service.gossip_link(0, 1)->SetLossRate(1.0);
  service.RunFor(TimeDelta::Seconds(4));
  EXPECT_GT(service.gossip().stats().suspicions, 0u);
  EXPECT_GT(service.gossip().stats().timeouts, 0u);
  EXPECT_TRUE(service.gossip().view(1, 0).suspected);
  EXPECT_EQ(service.failover().shard_crashes, 0u);
  EXPECT_EQ(service.failover().conferences_rehomed, 0u);
  EXPECT_TRUE(service.shard(0).alive());
  EXPECT_EQ(service.shard(0).conference_count(), 1);
  EXPECT_EQ(service.shard(1).conference_count(), 1);

  // Healing the link un-suspects the peer at the next delivery.
  service.gossip_link(0, 1)->SetLossRate(0.0);
  service.RunFor(TimeDelta::Seconds(2));
  EXPECT_FALSE(service.gossip().view(1, 0).suspected);
}

TEST(Failover, GossipRetriesAndTimesOutOnLossyControlLinks) {
  ServiceConfig config = FourShardConfig();
  config.num_shards = 2;
  config.gossip.link.loss_rate = 0.5;
  OrchestrationService service(config);
  ConferenceSpec spec;
  spec.seed = 3;
  ASSERT_TRUE(service.Admit(spec).has_value());
  service.RunFor(TimeDelta::Seconds(20));

  const GossipStats& stats = service.gossip().stats();
  EXPECT_GT(stats.summaries_sent, 0u);
  EXPECT_GT(stats.delivered, 0u);
  // Half the control packets die, so the ack protocol retransmits with
  // backoff and some summaries exhaust their retry budget entirely.
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.timeouts, 0u);
  EXPECT_GT(service.gossip().PacketsDropped(), 0u);
  // Loss degrades the views, never the fleet: no spurious failover.
  EXPECT_EQ(service.failover().shard_crashes, 0u);
  EXPECT_TRUE(service.shard(0).alive());
  EXPECT_TRUE(service.shard(1).alive());
  EXPECT_EQ(service.conference_count(), 1);
}

// One mini fleet under churn plus a scripted shard-outage storm: a timed
// whole-shard crash (victims evacuated, shard revives empty) overlapping a
// permanent one. Returns the order-sensitive fleet digest.
uint64_t RunFaultedFleet(bool parallel_shards, uint64_t gossip_seed,
                         double gossip_loss,
                         FailoverCounters* counters = nullptr) {
  ServiceConfig config;
  config.num_shards = 4;
  config.max_conferences = 16;
  config.solve_backlog = 2;
  config.parallel_shards = parallel_shards;
  config.gossip.seed = gossip_seed;
  config.gossip.link.loss_rate = gossip_loss;
  OrchestrationService service(config);
  service.control_faults().ShardCrash(&service.shard(1), Timestamp::Seconds(3),
                                      /*duration=*/TimeDelta::Seconds(4));
  service.control_faults().ShardCrash(&service.shard(2), Timestamp::Seconds(8));

  ChurnConfig churn;
  churn.target_concurrent = 10;
  churn.mean_lifetime = TimeDelta::Seconds(8);
  churn.wave_period = TimeDelta::Seconds(3);
  churn.seed = 5;
  ChurnStorm storm(&service, churn);
  storm.RunFor(TimeDelta::Seconds(14));

  if (counters != nullptr) *counters = service.failover();
  FleetReport report = service.Report();
  EXPECT_GT(report.completed, 0);
  return report.digest;
}

TEST(Failover, FleetDigestInvariantToShardScheduling) {
  // All cross-shard mutation (gossip delivery, crashes, failover,
  // rebalance, record sweeps) happens between slices in shard-index order,
  // so the fleet history is bit-identical whether the shard slices run
  // sequentially or on parallel threads — even with lossy gossip links,
  // whose drops live on the control loop's own seeded streams.
  FailoverCounters counters;
  const uint64_t sequential = RunFaultedFleet(false, 1, 0.02, &counters);
  EXPECT_EQ(counters.shard_crashes, 2u);
  EXPECT_GE(counters.conferences_rehomed, 1u);
  EXPECT_EQ(counters.shard_restarts, 1u);
  EXPECT_EQ(sequential, RunFaultedFleet(true, 1, 0.02));
}

TEST(Failover, FleetDigestInvariantAcrossGossipSeedsWhenDeliveryMatches) {
  // The gossip seed only feeds the control links' loss draws. With lossless
  // links every seed yields identical delivery outcomes, so the fleet
  // digest cannot depend on the seed value itself.
  EXPECT_EQ(RunFaultedFleet(false, /*gossip_seed=*/1, /*gossip_loss=*/0.0),
            RunFaultedFleet(false, /*gossip_seed=*/99, /*gossip_loss=*/0.0));
}

}  // namespace
}  // namespace gso::service
