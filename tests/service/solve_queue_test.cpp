// SolveQueue policy tests: bounded backlog, displacement shedding, and
// priority drain order, driven through real conferences multiplexed on a
// shared event loop (the same wiring the service's shards use).
#include "service/solve_queue.h"

#include <chrono>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "conference/conference.h"
#include "conference/scenarios.h"
#include "sim/event_loop.h"

namespace gso::service {
namespace {

std::unique_ptr<conference::Conference> MakeConference(sim::EventLoop* loop,
                                                       uint64_t seed) {
  conference::ConferenceConfig config;
  config.loop = loop;
  config.seed = seed;
  auto conf = std::make_unique<conference::Conference>(config);
  for (uint32_t i = 1; i <= 3; ++i) {
    conference::ParticipantConfig pc;
    pc.client = conference::DefaultClient(i);
    conf->AddParticipant(pc);
  }
  conf->SubscribeAllCameras(kResolution720p);
  conf->Start();
  return conf;
}

// Routes the conference's orchestrations into `queue` under a fixed class
// (the shard re-classifies per submission; a fixed class makes the queue
// policy observable in isolation).
void ArmExecutor(conference::Conference* conf, SolveQueue* queue,
                 SolveClass cls) {
  conf->control().SetSolveExecutor(
      [queue, cls, conf](conference::ConferenceNode* node) {
        return queue->Push(node, cls, conf->owner());
      });
}

TEST(SolveQueue, BacklogBoundShedsAndShedNodesRetry) {
  sim::EventLoop loop;
  auto c1 = MakeConference(&loop, 1);
  auto c2 = MakeConference(&loop, 2);
  auto c3 = MakeConference(&loop, 3);
  // Let joins/BWE settle with inline solves before routing through the
  // queue.
  loop.RunFor(TimeDelta::Seconds(1));

  SolveQueue queue(/*backlog=*/2, &loop);
  ArmExecutor(c1.get(), &queue, SolveClass::kNormal);
  ArmExecutor(c2.get(), &queue, SolveClass::kNormal);
  ArmExecutor(c3.get(), &queue, SolveClass::kNormal);

  c1->control().OrchestrateNow();
  c2->control().OrchestrateNow();
  c3->control().OrchestrateNow();  // queue full, same class -> refused

  EXPECT_EQ(queue.depth(), 2);
  EXPECT_TRUE(c1->control().solve_in_flight());
  EXPECT_TRUE(c2->control().solve_in_flight());
  EXPECT_FALSE(c3->control().solve_in_flight());
  EXPECT_EQ(c3->control().solves_shed(), 1);
  EXPECT_EQ(queue.stats().accepted, 2u);
  EXPECT_EQ(queue.stats().shed_rejected, 1u);

  queue.Drain();
  EXPECT_EQ(queue.depth(), 0);
  EXPECT_FALSE(c1->control().solve_in_flight());
  EXPECT_FALSE(c2->control().solve_in_flight());
  EXPECT_EQ(queue.stats().solved, 2u);
  EXPECT_EQ(queue.stats().batches, 1u);

  // The shed conference re-armed its event trigger: driving slices (run,
  // then drain) gets its orchestration through — shedding trades latency,
  // never correctness.
  const int before = c3->control().orchestration_count();
  for (int i = 0; i < 10; ++i) {
    loop.RunFor(TimeDelta::Millis(200));
    queue.Drain();
  }
  EXPECT_GT(c3->control().orchestration_count(), before);
}

TEST(SolveQueue, HigherClassDisplacesWorstQueuedEntry) {
  sim::EventLoop loop;
  auto normal_a = MakeConference(&loop, 1);
  auto normal_b = MakeConference(&loop, 2);
  auto large = MakeConference(&loop, 3);
  auto degraded = MakeConference(&loop, 4);
  auto rejected = MakeConference(&loop, 5);
  loop.RunFor(TimeDelta::Seconds(1));

  SolveQueue queue(/*backlog=*/2, &loop);
  ArmExecutor(normal_a.get(), &queue, SolveClass::kNormal);
  ArmExecutor(normal_b.get(), &queue, SolveClass::kNormal);
  ArmExecutor(large.get(), &queue, SolveClass::kLarge);
  ArmExecutor(degraded.get(), &queue, SolveClass::kDegraded);
  ArmExecutor(rejected.get(), &queue, SolveClass::kNormal);

  normal_a->control().OrchestrateNow();
  normal_b->control().OrchestrateNow();

  // Large displaces the worst queued normal — the newest arrival.
  large->control().OrchestrateNow();
  EXPECT_TRUE(large->control().solve_in_flight());
  EXPECT_FALSE(normal_b->control().solve_in_flight());
  EXPECT_EQ(normal_b->control().solves_shed(), 1);
  EXPECT_EQ(queue.stats().shed_displaced, 1u);
  EXPECT_EQ(queue.depth(), 2);

  // The sleeps separate the enqueue timestamps so drain order is visible
  // in the recorded queue latencies below.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // Degraded displaces the remaining normal, not the large entry.
  degraded->control().OrchestrateNow();
  EXPECT_TRUE(degraded->control().solve_in_flight());
  EXPECT_TRUE(large->control().solve_in_flight());
  EXPECT_EQ(normal_a->control().solves_shed(), 1);
  EXPECT_EQ(queue.stats().shed_displaced, 2u);

  // A normal request cannot displace degraded/large work.
  rejected->control().OrchestrateNow();
  EXPECT_FALSE(rejected->control().solve_in_flight());
  EXPECT_EQ(queue.stats().shed_rejected, 1u);
  EXPECT_EQ(queue.depth(), 2);

  queue.Drain();
  EXPECT_EQ(queue.stats().solved, 2u);
  EXPECT_FALSE(large->control().solve_in_flight());
  EXPECT_FALSE(degraded->control().solve_in_flight());

  // Latencies are recorded in drain (commit) order. The degraded request
  // arrived ~5ms after the large one, so it waited strictly less — the
  // first recorded sample being the smaller one proves degraded drained
  // first despite arriving last.
  const auto& latencies = queue.stats().queue_latency_us.samples();
  ASSERT_EQ(latencies.size(), 2u);
  EXPECT_LT(latencies[0], latencies[1]);
}

// Displacement shedding against a conference that has since left: the
// queued entry's owner is cancelled and its node pointer is freed memory,
// so the displacement must drop the entry without the OnSolveShed callback
// (under ASan this test dies if the queue touches the freed node).
TEST(SolveQueue, DisplacingStaleOwnerEntryDoesNotTouchFreedConference) {
  sim::EventLoop loop;
  auto doomed = MakeConference(&loop, 1);
  auto degraded = MakeConference(&loop, 2);
  loop.RunFor(TimeDelta::Seconds(1));

  SolveQueue queue(/*backlog=*/1, &loop);
  ArmExecutor(doomed.get(), &queue, SolveClass::kNormal);
  ArmExecutor(degraded.get(), &queue, SolveClass::kDegraded);

  doomed->control().OrchestrateNow();
  EXPECT_EQ(queue.depth(), 1);

  // The conference leaves mid-batch: its owner is cancelled, its node
  // freed; the queued entry is now stale.
  doomed.reset();

  // A higher-class push displaces the stale entry — dropped, not shed.
  degraded->control().OrchestrateNow();
  EXPECT_TRUE(degraded->control().solve_in_flight());
  EXPECT_EQ(queue.depth(), 1);
  EXPECT_EQ(queue.stats().stale_dropped, 1u);
  EXPECT_EQ(queue.stats().shed_displaced, 0u);

  queue.Drain();
  EXPECT_EQ(queue.stats().solved, 1u);
  EXPECT_FALSE(degraded->control().solve_in_flight());
}

// Drain must drop (never run or commit) entries whose conference left
// after queueing.
TEST(SolveQueue, DrainDropsStaleOwnerEntries) {
  sim::EventLoop loop;
  auto doomed = MakeConference(&loop, 1);
  auto survivor = MakeConference(&loop, 2);
  loop.RunFor(TimeDelta::Seconds(1));

  SolveQueue queue(/*backlog=*/4, &loop);
  ArmExecutor(doomed.get(), &queue, SolveClass::kNormal);
  ArmExecutor(survivor.get(), &queue, SolveClass::kNormal);

  doomed->control().OrchestrateNow();
  survivor->control().OrchestrateNow();
  EXPECT_EQ(queue.depth(), 2);

  doomed.reset();

  queue.Drain();
  EXPECT_EQ(queue.depth(), 0);
  EXPECT_EQ(queue.stats().solved, 1u);
  EXPECT_EQ(queue.stats().stale_dropped, 1u);
  EXPECT_FALSE(survivor->control().solve_in_flight());
}

// Abandon (shard teardown / crash): live conferences get the batch shed
// back (in-flight flag clears, trigger re-arms), stale entries are dropped
// untouched, and nothing runs or commits.
TEST(SolveQueue, AbandonShedsLiveEntriesAndDropsStaleOnes) {
  sim::EventLoop loop;
  auto doomed = MakeConference(&loop, 1);
  auto survivor = MakeConference(&loop, 2);
  loop.RunFor(TimeDelta::Seconds(1));

  SolveQueue queue(/*backlog=*/4, &loop);
  ArmExecutor(doomed.get(), &queue, SolveClass::kNormal);
  ArmExecutor(survivor.get(), &queue, SolveClass::kNormal);

  doomed->control().OrchestrateNow();
  survivor->control().OrchestrateNow();
  const int solves_before = survivor->control().orchestration_count();
  doomed.reset();

  queue.Abandon();
  EXPECT_EQ(queue.depth(), 0);
  EXPECT_EQ(queue.stats().shed_abandoned, 1u);
  EXPECT_EQ(queue.stats().stale_dropped, 1u);
  EXPECT_EQ(queue.stats().solved, 0u);
  // The survivor was shed, not solved: no commit happened, and its event
  // trigger re-armed for a later tick.
  EXPECT_FALSE(survivor->control().solve_in_flight());
  EXPECT_EQ(survivor->control().orchestration_count(), solves_before);
  EXPECT_EQ(survivor->control().solves_shed(), 1);
}

}  // namespace
}  // namespace gso::service
