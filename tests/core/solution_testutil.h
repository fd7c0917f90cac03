// Shared helpers for orchestrator equivalence-style tests: a randomized
// problem generator and a bit-level Solution comparison. Used by the
// cold-path equivalence test (fast path vs frozen reference) and the
// warm-start property test (incremental vs cold re-solve).
#ifndef GSO_TESTS_CORE_SOLUTION_TESTUTIL_H_
#define GSO_TESTS_CORE_SOLUTION_TESTUTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/types.h"

namespace gso::core::testutil {

struct ShapeParams {
  int clients;
  int levels_per_resolution;
  double slow_fraction;
  double edge_probability;
};

inline OrchestrationProblem RandomProblem(const ShapeParams& params,
                                          uint64_t seed) {
  Rng rng(seed);
  OrchestrationProblem problem;
  const auto ladder = BuildLadder(
      {{kResolution720p, DataRate::KilobitsPerSec(900),
        DataRate::KilobitsPerSec(1800), params.levels_per_resolution},
       {kResolution360p, DataRate::KilobitsPerSec(350),
        DataRate::KilobitsPerSec(800), params.levels_per_resolution},
       {kResolution180p, DataRate::KilobitsPerSec(80),
        DataRate::KilobitsPerSec(300), params.levels_per_resolution}});
  for (int i = 1; i <= params.clients; ++i) {
    const ClientId id{static_cast<uint32_t>(i)};
    const bool slow = rng.Bernoulli(params.slow_fraction);
    ClientBudget budget;
    budget.client = id;
    budget.uplink = slow ? DataRate::KilobitsPerSec(rng.UniformInt(50, 700))
                         : DataRate::KilobitsPerSec(rng.UniformInt(800, 8000));
    budget.downlink =
        slow ? DataRate::KilobitsPerSec(rng.UniformInt(50, 900))
             : DataRate::KilobitsPerSec(rng.UniformInt(1000, 12000));
    problem.budgets.push_back(budget);
    problem.capabilities.push_back({{id, SourceKind::kCamera}, ladder});
  }
  const Resolution caps[] = {kResolution180p, kResolution360p,
                             kResolution720p};
  for (int s = 1; s <= params.clients; ++s) {
    for (int p = 1; p <= params.clients; ++p) {
      if (s == p || !rng.Bernoulli(params.edge_probability)) continue;
      problem.subscriptions.push_back(
          {ClientId{static_cast<uint32_t>(s)},
           {ClientId{static_cast<uint32_t>(p)}, SourceKind::kCamera},
           caps[rng.UniformInt(0, 2)],
           rng.Bernoulli(0.1) ? 3.0 : 1.0,
           rng.Bernoulli(0.1) ? 1 : 0});
    }
  }
  return problem;
}

// Fisher-Yates shuffle of items[first, end) drawn from `rng`.
template <typename T>
void Shuffle(std::vector<T>& items, size_t first, Rng& rng) {
  for (size_t i = items.size(); i > first + 1; --i) {
    const size_t j = first + static_cast<size_t>(rng.UniformInt(
                                 0, static_cast<int64_t>(i - 1 - first)));
    std::swap(items[i - 1], items[j]);
  }
}

// A problem whose subscribers each watch several sources on several slots
// (the virtual-publisher trick), with every subscriber's edges in random
// (slot, source) order and some (subscriber, source, slot) edges given
// twice with different caps. Final assembly must sort each subscriber's
// assignments into map order and keep the last of equal keys.
inline OrchestrationProblem MultiSlotProblem(uint64_t seed, int clients) {
  Rng rng(seed);
  OrchestrationProblem problem;
  const auto ladder = BuildLadder(
      {{kResolution720p, DataRate::KilobitsPerSec(900),
        DataRate::KilobitsPerSec(1800), 3},
       {kResolution360p, DataRate::KilobitsPerSec(350),
        DataRate::KilobitsPerSec(800), 3},
       {kResolution180p, DataRate::KilobitsPerSec(80),
        DataRate::KilobitsPerSec(300), 3}});
  for (int i = 1; i <= clients; ++i) {
    const ClientId id{static_cast<uint32_t>(i)};
    problem.budgets.push_back(
        {id, DataRate::KilobitsPerSec(rng.UniformInt(600, 8000)),
         DataRate::KilobitsPerSec(rng.UniformInt(500, 9000))});
    problem.capabilities.push_back({{id, SourceKind::kCamera}, ladder});
    if (rng.Bernoulli(0.3)) {
      problem.capabilities.push_back({{id, SourceKind::kScreen}, ladder});
    }
  }
  const Resolution caps[] = {kResolution180p, kResolution360p,
                             kResolution720p};
  for (int s = 1; s <= clients; ++s) {
    const size_t first = problem.subscriptions.size();
    const int edges = static_cast<int>(rng.UniformInt(2, 3 * clients));
    for (int e = 0; e < edges; ++e) {
      const int p = static_cast<int>(rng.UniformInt(1, clients));
      if (p == s) continue;
      Subscription sub{ClientId{static_cast<uint32_t>(s)},
                       {ClientId{static_cast<uint32_t>(p)},
                        rng.Bernoulli(0.2) ? SourceKind::kScreen
                                           : SourceKind::kCamera},
                       caps[rng.UniformInt(0, 2)],
                       rng.Bernoulli(0.2) ? 2.0 : 1.0,
                       static_cast<int>(rng.UniformInt(0, 2))};
      problem.subscriptions.push_back(sub);
      if (rng.Bernoulli(0.15)) {
        sub.max_resolution = caps[rng.UniformInt(0, 2)];
        problem.subscriptions.push_back(sub);  // same key, maybe other cap
      }
    }
    // Out of (slot, source) order within the subscriber's run.
    Shuffle(problem.subscriptions, first, rng);
  }
  return problem;
}

// One seeded delta of a MultiSlotProblem. Some deltas leave a subscriber,
// or one of its slots, with no assignment, so its entries must be erased
// from Solution::per_subscriber.
inline void ApplyMultiSlotDelta(OrchestrationProblem& problem, Rng& rng,
                                int clients) {
  const ClientId client{static_cast<uint32_t>(rng.UniformInt(1, clients))};
  const int kind = static_cast<int>(rng.UniformInt(0, 5));
  auto& subs = problem.subscriptions;
  if (kind == 0) {
    // Starve the client's downlink below every stream: no assignment.
    for (auto& b : problem.budgets) {
      if (b.client == client) b.downlink = DataRate::KilobitsPerSec(50);
    }
  } else if (kind == 1) {
    for (auto& b : problem.budgets) {
      if (b.client == client) {
        b.downlink = DataRate::KilobitsPerSec(rng.UniformInt(300, 9000));
      }
    }
  } else if (kind == 2) {
    // Drop one of the client's slots.
    const int slot = static_cast<int>(rng.UniformInt(0, 2));
    subs.erase(std::remove_if(subs.begin(), subs.end(),
                              [&](const Subscription& s) {
                                return s.subscriber == client &&
                                       s.slot == slot;
                              }),
               subs.end());
  } else if (kind == 3) {
    // Re-subscribe on a slot, appended at the end of the edge list (so the
    // client's run is split).
    const int p = static_cast<int>(rng.UniformInt(1, clients));
    if (!(ClientId{static_cast<uint32_t>(p)} == client)) {
      subs.push_back({client,
                      {ClientId{static_cast<uint32_t>(p)}, SourceKind::kCamera},
                      kResolution720p, 1.0,
                      static_cast<int>(rng.UniformInt(0, 2))});
    }
  } else if (kind == 4) {
    // Reverse the client's edges: the last of equal keys changes.
    std::vector<size_t> at;
    for (size_t i = 0; i < subs.size(); ++i) {
      if (subs[i].subscriber == client) at.push_back(i);
    }
    for (size_t i = 0, j = at.size(); i + 1 < j; ++i, --j) {
      std::swap(subs[at[i]], subs[at[j - 1]]);
    }
  } else {
    // The client's uplink moves: other subscribers' streams change.
    for (auto& b : problem.budgets) {
      if (b.client == client) {
        b.uplink = DataRate::KilobitsPerSec(rng.UniformInt(300, 8000));
      }
    }
  }
}

// Compares the semantic Solution fields bit-for-bit: publish policies,
// receiver lists, per-subscriber assignments, QoE sums (exact — the same
// floating-point accumulation order is part of the contract) and iteration
// counts. `stats` is intentionally not compared: it is a solve trace and
// legitimately differs between e.g. a warm and a cold solve.
inline void ExpectBitIdentical(const Solution& a, const Solution& b,
                               const char* label, uint64_t seed) {
  SCOPED_TRACE(testing::Message() << label << " seed " << seed);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.total_qoe, b.total_qoe);  // exact: same accumulation order
  EXPECT_EQ(a.step1_qoe, b.step1_qoe);

  ASSERT_EQ(a.publish.size(), b.publish.size());
  auto pa = a.publish.begin();
  auto pb = b.publish.begin();
  for (; pa != a.publish.end(); ++pa, ++pb) {
    ASSERT_TRUE(pa->first == pb->first);
    ASSERT_EQ(pa->second.size(), pb->second.size());
    for (size_t k = 0; k < pa->second.size(); ++k) {
      const PublishedStream& sa = pa->second[k];
      const PublishedStream& sb = pb->second[k];
      EXPECT_TRUE(sa.resolution == sb.resolution);
      EXPECT_EQ(sa.bitrate, sb.bitrate);
      EXPECT_EQ(sa.qoe, sb.qoe);
      EXPECT_EQ(sa.receivers, sb.receivers);
    }
  }

  ASSERT_EQ(a.per_subscriber.size(), b.per_subscriber.size());
  auto sa = a.per_subscriber.begin();
  auto sb = b.per_subscriber.begin();
  for (; sa != a.per_subscriber.end(); ++sa, ++sb) {
    ASSERT_TRUE(sa->first == sb->first);
    ASSERT_EQ(sa->second.size(), sb->second.size());
    auto ia = sa->second.begin();
    auto ib = sb->second.begin();
    for (; ia != sa->second.end(); ++ia, ++ib) {
      ASSERT_TRUE(ia->first == ib->first);
      EXPECT_TRUE(ia->second.resolution == ib->second.resolution);
      EXPECT_EQ(ia->second.bitrate, ib->second.bitrate);
    }
  }
}

}  // namespace gso::core::testutil

#endif  // GSO_TESTS_CORE_SOLUTION_TESTUTIL_H_
