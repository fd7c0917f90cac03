// Hot-path allocation discipline: after warm-up, a full re-solve (warm
// state reset) and a delta re-solve must perform zero heap allocations.
// Global operator new/delete are replaced with the counting versions from
// common/alloc_tracker.h, so this test lives in its own executable
// (gso_alloc_tests) and skips itself under sanitizers, whose interceptors
// own the allocator.
#include <gtest/gtest.h>

#include <cstdint>

#define GSO_ALLOC_TRACKER_IMPL
#include "common/alloc_tracker.h"
#include "core/mckp.h"
#include "core/orchestrator.h"
#include "core/types.h"

namespace gso::core {
namespace {

// Runs `fn` and returns the number of operator-new calls it performed.
template <typename Fn>
int64_t CountAllocations(Fn&& fn) {
  const int64_t before = alloc::total_allocations();
  fn();
  return alloc::total_allocations() - before;
}

// An all-subscribe mesh with mixed budgets: slow clients force uplink
// fixes and reductions, so the counted solves exercise Steps 1-3 plus the
// reduction/re-dirty path, not just the single-iteration fast case.
OrchestrationProblem MeshWithReductions(int clients) {
  OrchestrationProblem problem;
  const auto ladder = BuildLadder(
      {{kResolution720p, DataRate::KilobitsPerSec(900),
        DataRate::KilobitsPerSec(1800), 4},
       {kResolution360p, DataRate::KilobitsPerSec(350),
        DataRate::KilobitsPerSec(800), 4},
       {kResolution180p, DataRate::KilobitsPerSec(80),
        DataRate::KilobitsPerSec(300), 4}});
  for (int i = 1; i <= clients; ++i) {
    const ClientId id{static_cast<uint32_t>(i)};
    const bool slow = i % 3 == 0;
    problem.budgets.push_back(
        {id,
         slow ? DataRate::KilobitsPerSec(400)
              : DataRate::KilobitsPerSec(6000),
         slow ? DataRate::KilobitsPerSec(900)
              : DataRate::KilobitsPerSec(8000)});
    problem.capabilities.push_back({{id, SourceKind::kCamera}, ladder});
  }
  for (int s = 1; s <= clients; ++s) {
    for (int p = 1; p <= clients; ++p) {
      if (s == p) continue;
      problem.subscriptions.push_back(
          {ClientId{static_cast<uint32_t>(s)},
           {ClientId{static_cast<uint32_t>(p)}, SourceKind::kCamera},
           kResolution720p,
           1.0,
           0});
    }
  }
  return problem;
}

// A full warm re-solve: ResetWarmState drops every cached Step-1 result,
// so each counted solve recompiles, re-runs every knapsack and reduces —
// all in storage kept from the warm-up solves.
TEST(WarmAlloc, FullResolveIsAllocationFreeAfterWarmup) {
  if (!alloc::tracker_active()) {
    GTEST_SKIP() << "allocation counting is disabled under sanitizers";
  }
  const DpMckpSolver solver;
  const Orchestrator orchestrator(&solver);
  const auto problem = MeshWithReductions(12);
  auto full_resolve = [&] {
    orchestrator.ResetWarmState();
    (void)orchestrator.Solve(SolveRequest::Warm(problem));
  };

  for (int i = 0; i < 3; ++i) full_resolve();
  const int64_t allocs = CountAllocations([&] {
    for (int i = 0; i < 5; ++i) full_resolve();
  });
  EXPECT_EQ(allocs, 0) << "steady-state full re-solve allocated";
}

TEST(WarmAlloc, DeltaResolveIsAllocationFreeAfterWarmup) {
  if (!alloc::tracker_active()) {
    GTEST_SKIP() << "allocation counting is disabled under sanitizers";
  }
  const DpMckpSolver solver;
  const Orchestrator orchestrator(&solver);
  OrchestrationProblem problem = MeshWithReductions(12);

  // Warm up both toggle states so every grow-only buffer reaches its
  // steady-state capacity before counting starts.
  const DataRate kA = DataRate::KilobitsPerSec(900);
  const DataRate kB = DataRate::KilobitsPerSec(5000);
  for (int i = 0; i < 6; ++i) {
    problem.budgets[4].downlink = i % 2 == 0 ? kA : kB;
    (void)orchestrator.Solve(SolveRequest::Warm(problem));
  }
  const int64_t allocs = CountAllocations([&] {
    for (int i = 0; i < 6; ++i) {
      problem.budgets[4].downlink = i % 2 == 0 ? kA : kB;
      (void)orchestrator.Solve(SolveRequest::Warm(problem));
    }
  });
  EXPECT_EQ(allocs, 0) << "steady-state delta re-solve allocated";
}

// The controller's steady state on a webinar: 10 publishers, 200
// subscribers each watching every publisher, and one subscriber's reported
// downlink moving. Compile, diff, the cache replays and the final
// assembly's walk over ~2,000 per_subscriber entries all reuse storage.
TEST(WarmAlloc, WebinarReportDeltaIsAllocationFreeAfterWarmup) {
  if (!alloc::tracker_active()) {
    GTEST_SKIP() << "allocation counting is disabled under sanitizers";
  }
  const DpMckpSolver solver;
  const Orchestrator orchestrator(&solver);
  OrchestrationProblem problem;
  const auto ladder = FineLadder(5);
  for (uint32_t i = 1; i <= 200; ++i) {
    problem.budgets.push_back({ClientId(i),
                               DataRate::KilobitsPerSec(i <= 10 ? 5000 : 800),
                               DataRate::KilobitsPerSec(1000 + 37 * i)});
  }
  for (uint32_t p = 1; p <= 10; ++p) {
    problem.capabilities.push_back({{ClientId(p), SourceKind::kCamera}, ladder});
  }
  for (uint32_t s = 1; s <= 200; ++s) {
    for (uint32_t p = 1; p <= 10; ++p) {
      if (p == s) continue;
      problem.subscriptions.push_back({ClientId(s),
                                       {ClientId(p), SourceKind::kCamera},
                                       kResolution720p,
                                       1.0,
                                       0});
    }
  }

  const DataRate kA = DataRate::KilobitsPerSec(1200);
  const DataRate kB = DataRate::KilobitsPerSec(6500);
  for (int i = 0; i < 6; ++i) {
    problem.budgets[57].downlink = i % 2 == 0 ? kA : kB;
    (void)orchestrator.Solve(SolveRequest::Warm(problem));
  }
  const int64_t allocs = CountAllocations([&] {
    for (int i = 0; i < 6; ++i) {
      problem.budgets[57].downlink = i % 2 == 0 ? kA : kB;
      const Solution& solution =
          orchestrator.Solve(SolveRequest::Warm(problem));
      EXPECT_EQ(solution.stats.dirty_subscribers, 1);
    }
  });
  EXPECT_EQ(allocs, 0) << "steady-state webinar report delta allocated";
}

}  // namespace
}  // namespace gso::core
