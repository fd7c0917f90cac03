// Warm-start equivalence property: SolveWarm must be bit-identical to a
// cold Solve after *every* step of a randomized delta stream — report
// changes, joins, leaves and ladder edits.
// This is the contract that lets the conference controller feed deltas
// instead of paying a full cold solve per control event.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/mckp.h"
#include "core/orchestrator.h"
#include "core/types.h"
#include "solution_testutil.h"

namespace gso::core {
namespace {

using testutil::ExpectBitIdentical;
using testutil::RandomProblem;
using testutil::ShapeParams;

std::vector<StreamOption> LadderWithLevels(int levels) {
  return BuildLadder(
      {{kResolution720p, DataRate::KilobitsPerSec(900),
        DataRate::KilobitsPerSec(1800), levels},
       {kResolution360p, DataRate::KilobitsPerSec(350),
        DataRate::KilobitsPerSec(800), levels},
       {kResolution180p, DataRate::KilobitsPerSec(80),
        DataRate::KilobitsPerSec(300), levels}});
}

// One seeded mutation of the problem snapshot: the event kinds a live
// controller feeds the solver (MeetingReport, join, leave, ladder change).
void ApplyDelta(OrchestrationProblem& problem, Rng& rng, uint32_t& next_id,
                int levels) {
  const int kind = rng.UniformInt(0, 9);
  if (kind <= 4 || problem.budgets.size() < 3) {
    // Report delta (the common case): one client's budgets move.
    auto& budget = problem.budgets[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int>(problem.budgets.size()) - 1))];
    budget.downlink = DataRate::KilobitsPerSec(rng.UniformInt(50, 12000));
    if (rng.Bernoulli(0.4)) {
      budget.uplink = DataRate::KilobitsPerSec(rng.UniformInt(50, 8000));
    }
    return;
  }
  if (kind <= 6) {
    // Join: a new publisher+subscriber with edges both ways.
    const ClientId id{next_id++};
    problem.budgets.push_back(
        {id, DataRate::KilobitsPerSec(rng.UniformInt(500, 6000)),
         DataRate::KilobitsPerSec(rng.UniformInt(800, 10000))});
    problem.capabilities.push_back(
        {{id, SourceKind::kCamera}, LadderWithLevels(levels)});
    const Resolution caps[] = {kResolution180p, kResolution360p,
                               kResolution720p};
    std::vector<ClientId> others;
    for (const auto& b : problem.budgets) {
      if (!(b.client == id)) others.push_back(b.client);
    }
    for (const ClientId other : others) {
      if (rng.Bernoulli(0.6)) {
        problem.subscriptions.push_back({id,
                                         {other, SourceKind::kCamera},
                                         caps[rng.UniformInt(0, 2)],
                                         1.0,
                                         0});
      }
      if (rng.Bernoulli(0.6)) {
        problem.subscriptions.push_back({other,
                                         {id, SourceKind::kCamera},
                                         caps[rng.UniformInt(0, 2)],
                                         1.0,
                                         0});
      }
    }
    return;
  }
  if (kind <= 8) {
    // Leave: one client disappears from every part of the snapshot.
    const ClientId victim =
        problem.budgets[static_cast<size_t>(rng.UniformInt(
                            0, static_cast<int>(problem.budgets.size()) - 1))]
            .client;
    problem.budgets.erase(
        std::remove_if(problem.budgets.begin(), problem.budgets.end(),
                       [&](const ClientBudget& b) {
                         return b.client == victim;
                       }),
        problem.budgets.end());
    problem.capabilities.erase(
        std::remove_if(problem.capabilities.begin(),
                       problem.capabilities.end(),
                       [&](const SourceCapability& c) {
                         return c.source.client == victim;
                       }),
        problem.capabilities.end());
    problem.subscriptions.erase(
        std::remove_if(problem.subscriptions.begin(),
                       problem.subscriptions.end(),
                       [&](const Subscription& s) {
                         return s.subscriber == victim ||
                                s.source.client == victim;
                       }),
        problem.subscriptions.end());
    return;
  }
  // Ladder edit: one publisher renegotiates its feasible stream set.
  auto& cap = problem.capabilities[static_cast<size_t>(rng.UniformInt(
      0, static_cast<int>(problem.capabilities.size()) - 1))];
  cap.options = LadderWithLevels(
      std::max(2, levels + static_cast<int>(rng.UniformInt(-1, 1))));
  if (rng.Bernoulli(0.3)) {
    // Drop the top resolution entirely (a camera downgrade).
    cap.options.erase(
        std::remove_if(cap.options.begin(), cap.options.end(),
                       [](const StreamOption& o) {
                         return o.resolution == kResolution720p;
                       }),
        cap.options.end());
  }
}

TEST(WarmSolve, MatchesColdAfterEveryDelta) {
  DpMckpSolver solver;
  const ShapeParams shapes[] = {
      {6, 4, 0.4, 0.8},
      {10, 5, 0.3, 0.5},
      {14, 3, 0.6, 0.4},
  };
  for (const auto& shape : shapes) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      const Orchestrator cold(&solver);
      const Orchestrator warm(&solver);
      OrchestrationProblem problem = RandomProblem(shape, seed);
      Rng rng(seed * 7919 + 13);
      uint32_t next_id = 10000 + static_cast<uint32_t>(seed) * 1000;

      for (int step = 0; step < 30; ++step) {
        if (step > 0) {
          ApplyDelta(problem, rng, next_id, shape.levels_per_resolution);
        }
        const Solution expected = cold.Solve(SolveRequest::Cold(problem));
        const Solution got = warm.Solve(SolveRequest::Warm(problem));
        SCOPED_TRACE(testing::Message()
                     << "clients " << shape.clients << " step " << step);
        ExpectBitIdentical(got, expected, "warm-vs-cold", seed);
        if (testing::Test::HasFailure()) return;  // first divergence only
      }
    }
  }
}

// Final assembly on multi-slot subscribers: edges out of (slot, source)
// order, repeated (subscriber, slot, source) keys, and deltas that leave a
// slot or a whole subscriber with no assignment. The cold reference is a
// fresh orchestrator per step, which assembles per_subscriber into an
// empty map, so an entry the warm orchestrator's walk failed to erase, or
// a repeated key it resolved to the wrong request, shows up as a diff.
TEST(WarmSolve, MultiSlotAssemblyMatchesFreshColdAfterEveryDelta) {
  DpMckpSolver solver;
  constexpr int kClients = 8;
  int erased_keys = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Orchestrator warm(&solver);
    OrchestrationProblem problem = testutil::MultiSlotProblem(seed, kClients);
    Rng rng(seed * 31 + 7);
    Solution previous;
    for (int step = 0; step < 40; ++step) {
      if (step > 0) testutil::ApplyMultiSlotDelta(problem, rng, kClients);
      const Orchestrator cold(&solver);
      const Solution expected = cold.Solve(SolveRequest::Cold(problem));
      const Solution got = warm.Solve(SolveRequest::Warm(problem));
      SCOPED_TRACE(testing::Message() << "step " << step);
      ExpectBitIdentical(got, expected, "multi-slot", seed);
      if (testing::Test::HasFailure()) return;  // first divergence only
      for (const auto& [key, sources] : previous.per_subscriber) {
        if (!got.per_subscriber.count(key)) ++erased_keys;
      }
      previous = got;
    }
  }
  // The stream did empty (subscriber, slot) entries that had existed.
  EXPECT_GT(erased_keys, 0);
}

// The stage walls are disjoint spans of one solve, so they never add up
// to more than its total wall, cold or warm, reducing or not.
TEST(WarmSolve, StageWallsSumToAtMostTotalWall) {
  DpMckpSolver solver;
  const Orchestrator warm(&solver);
  const Orchestrator cold(&solver);
  OrchestrationProblem problem = RandomProblem({10, 4, 0.4, 0.6}, 5);
  Rng rng(17);
  uint32_t next_id = 20000;
  int reducing = 0;
  for (int step = 0; step < 40; ++step) {
    if (step > 0) ApplyDelta(problem, rng, next_id, 4);
    for (const bool use_warm : {false, true}) {
      const SolveStats& stats =
          (use_warm ? warm.Solve(SolveRequest::Warm(problem))
                    : cold.Solve(SolveRequest::Cold(problem)))
              .stats;
      const double stages[] = {stats.compile_wall_us,
                               stats.warm_diff_wall_us,
                               stats.step1_wall_us,
                               stats.step2_wall_us,
                               stats.step3_wall_us,
                               stats.assemble_wall_us};
      double sum = 0.0;
      for (const double stage : stages) {
        EXPECT_GE(stage, 0.0);
        sum += stage;
      }
      // Slack for the rounding of six double additions only.
      EXPECT_LE(sum, stats.total_wall_us + 1e-9)
          << "step " << step << (use_warm ? " warm" : " cold");
      // The knapsack time is a sub-span of Step 1.
      EXPECT_GE(stats.step1_mckp_wall_us, 0.0);
      EXPECT_LE(stats.step1_mckp_wall_us, stats.step1_wall_us + 1e-9)
          << "step " << step << (use_warm ? " warm" : " cold");
      if (!use_warm) {
        EXPECT_GT(stats.step1_mckp_wall_us, 0.0);
      }
      if (stats.reductions > 0) ++reducing;
    }
  }
  EXPECT_GT(reducing, 0);
}

// A repeated identical snapshot is the cheapest possible warm solve: the
// diff finds nothing dirty and every Step-1 knapsack is answered from the
// cache (knapsack_solves counts only real MCKP runs, so it can only stem
// from Step-3 repair solves, which this generous-uplink problem never
// triggers).
TEST(WarmSolve, IdenticalResolveIsAllCacheHits) {
  DpMckpSolver solver;
  const Orchestrator warm(&solver);
  OrchestrationProblem problem;
  const auto ladder = LadderWithLevels(4);
  for (uint32_t i = 1; i <= 12; ++i) {
    const ClientId id{i};
    problem.budgets.push_back({id, DataRate::KilobitsPerSec(50000),
                               DataRate::KilobitsPerSec(4000)});
    problem.capabilities.push_back({{id, SourceKind::kCamera}, ladder});
  }
  for (uint32_t s = 1; s <= 12; ++s) {
    for (uint32_t p = 1; p <= 12; ++p) {
      if (s == p) continue;
      problem.subscriptions.push_back({ClientId{s},
                                       {ClientId{p}, SourceKind::kCamera},
                                       kResolution720p,
                                       1.0,
                                       0});
    }
  }

  const Solution first = warm.Solve(SolveRequest::Warm(problem));
  EXPECT_EQ(first.stats.dirty_subscribers, 12);
  EXPECT_EQ(first.stats.step1_cache_hits, 0);
  EXPECT_GT(first.stats.knapsack_solves, 0);

  const Solution second = warm.Solve(SolveRequest::Warm(problem));
  EXPECT_EQ(second.stats.dirty_subscribers, 0);
  EXPECT_EQ(second.stats.knapsack_solves, 0);
  EXPECT_GT(second.stats.step1_cache_hits, 0);
  ExpectBitIdentical(second, first, "identical-resolve", 0);
}

// A single-subscriber report change re-solves exactly that subscriber.
TEST(WarmSolve, SingleReportDeltaDirtiesOneSubscriber) {
  DpMckpSolver solver;
  const Orchestrator warm(&solver);
  OrchestrationProblem problem;
  const auto ladder = LadderWithLevels(4);
  for (uint32_t i = 1; i <= 10; ++i) {
    const ClientId id{i};
    problem.budgets.push_back({id, DataRate::KilobitsPerSec(50000),
                               DataRate::KilobitsPerSec(5000)});
    problem.capabilities.push_back({{id, SourceKind::kCamera}, ladder});
  }
  for (uint32_t s = 1; s <= 10; ++s) {
    for (uint32_t p = 1; p <= 10; ++p) {
      if (s == p) continue;
      problem.subscriptions.push_back({ClientId{s},
                                       {ClientId{p}, SourceKind::kCamera},
                                       kResolution720p,
                                       1.0,
                                       0});
    }
  }
  (void)warm.Solve(SolveRequest::Warm(problem));

  problem.budgets[3].downlink = DataRate::KilobitsPerSec(700);
  const Solution delta = warm.Solve(SolveRequest::Warm(problem));
  EXPECT_EQ(delta.stats.dirty_subscribers, 1);
  EXPECT_EQ(delta.stats.knapsack_solves, 1);
  EXPECT_EQ(delta.stats.step1_cache_hits, 9);

  const DpMckpSolver fresh_solver;
  const Orchestrator cold(&fresh_solver);
  ExpectBitIdentical(delta, cold.Solve(SolveRequest::Cold(problem)), "one-report-delta", 0);
}

// A repeated solve that reduces replays the reduced-state entry as well as
// the iteration-1 one: with the same inputs the Reduction removes the same
// resolution, and every watcher of the reduced source finds its previous
// result keyed by that removal. This is what keeps warm deltas on a
// webinar with one constrained publisher at a few milliseconds instead of
// a full Step 1 per iteration.
TEST(WarmSolve, RepeatedReducingResolveReplaysReducedEntries) {
  DpMckpSolver solver;
  const Orchestrator warm(&solver);
  OrchestrationProblem problem;
  const auto ladder = LadderWithLevels(4);
  const uint32_t clients = 8;
  for (uint32_t i = 1; i <= clients; ++i) {
    const ClientId id{i};
    // Client 1 cannot publish 720p (its floor is 900 kbps) but fits
    // 360p + 180p, so every solve removes exactly one resolution.
    problem.budgets.push_back(
        {id, DataRate::KilobitsPerSec(i == 1 ? 600 : 6000),
         DataRate::KilobitsPerSec(8000)});
    problem.capabilities.push_back({{id, SourceKind::kCamera}, ladder});
  }
  for (uint32_t s = 1; s <= clients; ++s) {
    for (uint32_t p = 1; p <= clients; ++p) {
      if (s == p) continue;
      problem.subscriptions.push_back({ClientId{s},
                                       {ClientId{p}, SourceKind::kCamera},
                                       kResolution720p,
                                       1.0,
                                       0});
    }
  }

  const Solution first = warm.Solve(SolveRequest::Warm(problem));
  ASSERT_EQ(first.stats.reductions, 1);
  EXPECT_EQ(first.stats.step1_cache_hits, 0);

  // Iteration 1 replays every subscriber; iteration 2 replays the seven
  // watchers of client 1. Only Step-3 repair knapsacks run again.
  const Solution second = warm.Solve(SolveRequest::Warm(problem));
  EXPECT_EQ(second.stats.dirty_subscribers, 0);
  EXPECT_EQ(second.stats.reductions, 1);
  EXPECT_EQ(second.stats.step1_cache_hits,
            static_cast<int>(clients + (clients - 1)));
  EXPECT_EQ(second.stats.knapsack_solves,
            first.stats.knapsack_solves - second.stats.step1_cache_hits);
  const DpMckpSolver fresh_solver;
  const Orchestrator cold(&fresh_solver);
  ExpectBitIdentical(second, cold.Solve(SolveRequest::Cold(problem)),
                     "reducing-resolve", 0);
}

// ResetWarmState drops the caches: the next warm solve is a full re-solve
// (every subscriber dirty) but still produces the identical solution.
TEST(WarmSolve, ResetForcesFullResolve) {
  DpMckpSolver solver;
  const Orchestrator warm(&solver);
  const auto problem = RandomProblem({8, 4, 0.4, 0.7}, 99);
  const Solution first = warm.Solve(SolveRequest::Warm(problem));
  warm.ResetWarmState();
  const Solution second = warm.Solve(SolveRequest::Warm(problem));
  EXPECT_EQ(second.stats.dirty_subscribers, first.stats.dirty_subscribers);
  EXPECT_EQ(second.stats.step1_cache_hits, 0);
  ExpectBitIdentical(second, first, "post-reset", 99);
}

}  // namespace
}  // namespace gso::core
