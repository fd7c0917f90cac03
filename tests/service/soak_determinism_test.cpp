// Long-horizon determinism: the soak harness's reproducibility rests on
// the fleet digest being a pure function of (config, seed, virtual time),
// independent of how shard slices are scheduled onto OS threads. The
// short digest tests in service_test.cpp cover seconds of virtual time;
// this one drives a small fleet through a full virtual hour of churn and
// fault waves — thousands of admission/shed/retire decisions — and
// requires the sequential and parallel-shard executions to land on the
// bit-identical digest.
#include <cstdint>

#include <gtest/gtest.h>

#include "service/churn.h"
#include "service/service.h"

namespace gso::service {
namespace {

uint64_t RunHourFleet(bool parallel_shards) {
  ServiceConfig config;
  config.num_shards = 2;
  config.max_conferences = 2;
  config.solve_backlog = 4;
  config.parallel_shards = parallel_shards;
  OrchestrationService service(config);

  ChurnConfig churn;
  churn.target_concurrent = 1;
  churn.mean_lifetime = TimeDelta::Seconds(300);
  churn.wave_period = TimeDelta::Seconds(60);
  churn.wave_fraction = 1.0;
  churn.seed = 42;
  ChurnStorm storm(&service, churn);
  storm.RunFor(TimeDelta::Seconds(3600));

  FleetReport report = service.Report();
  EXPECT_GT(report.completed, 5);
  EXPECT_GT(storm.stats().waves, 0u);
  return report.digest;
}

TEST(SoakDeterminism, HourOfChurnDigestMatchesAcrossShardScheduling) {
  const uint64_t sequential = RunHourFleet(false);
  const uint64_t parallel = RunHourFleet(true);
  EXPECT_NE(sequential, 0u);
  EXPECT_EQ(sequential, parallel);
}

}  // namespace
}  // namespace gso::service
