// Orchestration-service tests: admission control, shard placement, fleet
// determinism under churn and shedding, per-shard observability, and the
// shared fleet-population model.
#include "service/service.h"

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "service/churn.h"
#include "service/fleet_model.h"

namespace gso::service {
namespace {

ServiceConfig SmallConfig() {
  ServiceConfig config;
  config.num_shards = 2;
  config.max_conferences = 4;
  config.parallel_shards = false;
  return config;
}

TEST(OrchestrationService, AdmissionRejectsBeyondBound) {
  OrchestrationService service(SmallConfig());
  ConferenceSpec spec;
  spec.participants = 2;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    spec.seed = static_cast<uint64_t>(i + 1);
    const std::optional<uint64_t> id = service.Admit(spec);
    ASSERT_TRUE(id.has_value());
    ids.push_back(*id);
  }
  EXPECT_FALSE(service.Admit(spec).has_value());
  EXPECT_FALSE(service.Admit(spec).has_value());
  EXPECT_EQ(service.admitted(), 4u);
  EXPECT_EQ(service.rejected(), 2u);
  EXPECT_EQ(service.conference_count(), 4);

  // Removing a conference frees its admission slot.
  service.RunFor(TimeDelta::Seconds(1));
  service.Remove(ids[0]);
  EXPECT_EQ(service.conference_count(), 3);
  EXPECT_TRUE(service.Admit(spec).has_value());
  EXPECT_EQ(service.admitted(), 5u);
}

TEST(OrchestrationService, PlacementBalancesLeastLoadedShards) {
  OrchestrationService service(SmallConfig());
  ConferenceSpec spec;
  for (int i = 0; i < 4; ++i) {
    spec.seed = static_cast<uint64_t>(i + 1);
    ASSERT_TRUE(service.Admit(spec).has_value());
  }
  EXPECT_EQ(service.shard(0).conference_count(), 2);
  EXPECT_EQ(service.shard(1).conference_count(), 2);
}

TEST(OrchestrationService, ReportAggregatesCompletedOutcomes) {
  ServiceConfig config = SmallConfig();
  config.num_shards = 1;
  OrchestrationService service(config);
  ConferenceSpec spec;
  spec.participants = 3;
  spec.seed = 11;
  const uint64_t a = *service.Admit(spec);
  spec.seed = 12;
  const uint64_t b = *service.Admit(spec);

  service.RunFor(TimeDelta::Seconds(8));
  service.Remove(a);
  service.Remove(b);

  FleetReport report = service.Report();
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.live, 0);
  EXPECT_GT(report.solves, 0u);
  EXPECT_GT(report.mean_satisfaction, 0.0);
  EXPECT_LE(report.mean_satisfaction, 1.0);
  EXPECT_LE(report.min_satisfaction, report.p5_satisfaction);
  EXPECT_LE(report.p5_satisfaction, 1.0);
  EXPECT_NE(report.digest, 0u);
}

// One mini fleet under churn, fault waves, and a backlog tight enough to
// force shedding. Returns the order-sensitive digest of every completed
// outcome's bits.
uint64_t RunMiniFleet(bool parallel_shards) {
  ServiceConfig config;
  config.num_shards = 2;
  config.max_conferences = 8;
  config.solve_backlog = 2;  // force displacement/rejection shedding
  config.parallel_shards = parallel_shards;
  OrchestrationService service(config);

  ChurnConfig churn;
  churn.target_concurrent = 8;
  churn.mean_lifetime = TimeDelta::Seconds(8);
  churn.wave_period = TimeDelta::Seconds(3);
  churn.seed = 5;
  ChurnStorm storm(&service, churn);
  storm.RunFor(TimeDelta::Seconds(10));

  FleetReport report = service.Report();
  EXPECT_GT(report.completed, 0);
  EXPECT_GT(report.solves_shed, 0u);  // the tight backlog did shed
  return report.digest;
}

TEST(OrchestrationService, FleetDigestIsReproducible) {
  EXPECT_EQ(RunMiniFleet(false), RunMiniFleet(false));
}

TEST(OrchestrationService, FleetDigestInvariantToThreadingChoices) {
  // Shed/admission decisions depend only on virtual-time arrival order,
  // so the fleet history is bit-identical whether shards run sequentially
  // or on parallel threads.
  const uint64_t sequential = RunMiniFleet(false);
  EXPECT_EQ(sequential, RunMiniFleet(true));
}

TEST(OrchestrationService, ExportsPerShardMetrics) {
  obs::MetricsRegistry registry;
  ServiceConfig config = SmallConfig();
  config.metrics = &registry;
  OrchestrationService service(config);
  ConferenceSpec spec;
  spec.seed = 3;
  ASSERT_TRUE(service.Admit(spec).has_value());
  service.RunFor(TimeDelta::Seconds(2));

  int shard_series = 0;
  bool saw_queue_depth = false;
  for (const auto& metric : registry.metrics()) {
    if (metric->name().rfind("service.shard.", 0) == 0) {
      ++shard_series;
      EXPECT_GT(metric->samples().size(), 0u) << metric->name();
    }
    if (metric->name() == "service.shard.queue_depth") {
      saw_queue_depth = true;
    }
  }
  // Both shards export their series even when only one hosts conferences:
  // conferences, queue_depth, solves, shed, admission_rejected,
  // solves_per_sec, queue_latency_p50, queue_latency_p99.
  EXPECT_GE(shard_series, 2 * 8);
  EXPECT_TRUE(saw_queue_depth);
}

TEST(OrchestrationService, ExportsGossipAndFailoverMetrics) {
  obs::MetricsRegistry registry;
  ServiceConfig config = SmallConfig();
  config.metrics = &registry;
  OrchestrationService service(config);
  ConferenceSpec spec;
  spec.seed = 3;
  ASSERT_TRUE(service.Admit(spec).has_value());
  service.RunFor(TimeDelta::Seconds(2));

  int gossip_series = 0;
  int failover_series = 0;
  double gossip_sent = 0;
  for (const auto& metric : registry.metrics()) {
    if (metric->name().rfind("service.gossip.", 0) == 0) {
      ++gossip_series;
      ASSERT_GT(metric->samples().size(), 0u) << metric->name();
      if (metric->name() == "service.gossip.sent") {
        gossip_sent = metric->samples().back().value;
      }
    }
    if (metric->name().rfind("service.failover.", 0) == 0) {
      ++failover_series;
      EXPECT_GT(metric->samples().size(), 0u) << metric->name();
    }
  }
  // sent, delivered, dropped, retries, timeouts, suspicions.
  EXPECT_EQ(gossip_series, 6);
  // shard_crashes, shard_restarts, rehomed, rebalanced, recovery_p99,
  // degraded_qoe_floor.
  EXPECT_EQ(failover_series, 6);
  // 2 shards x 1 peer x (2s / 500ms period) summaries actually flowed.
  EXPECT_GT(gossip_sent, 0.0);
}

// Regression: destroying the service while solves are still queued (the
// host never reached the next slice boundary) must cancel the batch via
// the owner machinery — no solve may run or commit during teardown, and
// no freed conference may be touched (ASan enforces the latter).
TEST(OrchestrationService, MidBatchShutdownLeavesNoStrayCommits) {
  auto shard = std::make_unique<Shard>(/*index=*/0, /*solve_backlog=*/8);
  ConferenceSpec spec;
  spec.participants = 3;
  spec.seed = 21;
  shard->Host(1, spec);
  spec.seed = 22;
  shard->Host(2, spec);

  // Advance the raw loop without draining (RunSlice would drain): solve
  // requests pile up in the batch.
  shard->loop().RunFor(TimeDelta::Seconds(2));
  ASSERT_GT(shard->queue_depth(), 0);
  const uint64_t solved_before = shard->queue_stats().solved;

  // Mid-batch teardown: the destructor must abandon, not drain.
  shard.reset();
  // Nothing to assert post-mortem beyond "we got here alive" — the solved
  // counter died with the shard, but a drain during destruction would have
  // committed into destroyed conferences and tripped ASan loudly.
  (void)solved_before;
}

TEST(FleetModel, ParsePositiveIntAcceptsOnlyPositiveDecimals) {
  EXPECT_EQ(ParsePositiveInt("1"), std::optional<int>(1));
  EXPECT_EQ(ParsePositiveInt("123"), std::optional<int>(123));
  EXPECT_EQ(ParsePositiveInt("1000000000"), std::optional<int>(1000000000));
  EXPECT_FALSE(ParsePositiveInt("").has_value());
  EXPECT_FALSE(ParsePositiveInt("0").has_value());
  EXPECT_FALSE(ParsePositiveInt("00").has_value());
  EXPECT_FALSE(ParsePositiveInt("-5").has_value());
  EXPECT_FALSE(ParsePositiveInt("+5").has_value());
  EXPECT_FALSE(ParsePositiveInt("12x").has_value());
  EXPECT_FALSE(ParsePositiveInt(" 12").has_value());
  EXPECT_FALSE(ParsePositiveInt("1e3").has_value());
  EXPECT_FALSE(ParsePositiveInt("10000000000").has_value());  // overflow
}

TEST(FleetModel, ConfsPerDayFromEnvFallsBackWhenUnset) {
  unsetenv("GSO_FLEET_CONFS_PER_DAY");
  EXPECT_EQ(ConfsPerDayFromEnv(250), 250);
}

// Shards drain their solve queues serially; the per-shard solver thread
// count survives only as a field that must stay 1.
TEST(OrchestrationServiceDeathTest, SolverThreadsPerShardMustBeOne) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ServiceConfig config = SmallConfig();
  config.solver_threads_per_shard = 2;
  EXPECT_DEATH(OrchestrationService service(config),
               "solver_threads_per_shard");
}

TEST(FleetModel, ConfsPerDayFromEnvReadsOverride) {
  setenv("GSO_FLEET_CONFS_PER_DAY", "1234", 1);
  EXPECT_EQ(ConfsPerDayFromEnv(250), 1234);
  unsetenv("GSO_FLEET_CONFS_PER_DAY");
}

TEST(FleetModelDeathTest, ConfsPerDayFromEnvRejectsGarbage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  setenv("GSO_FLEET_CONFS_PER_DAY", "not-a-number", 1);
  EXPECT_EXIT(ConfsPerDayFromEnv(250), ::testing::ExitedWithCode(2),
              "not a positive integer");
  setenv("GSO_FLEET_CONFS_PER_DAY", "-3", 1);
  EXPECT_EXIT(ConfsPerDayFromEnv(250), ::testing::ExitedWithCode(2),
              "not a positive integer");
  unsetenv("GSO_FLEET_CONFS_PER_DAY");
}

}  // namespace
}  // namespace gso::service
