// Bit-identical equivalence between the dense-index orchestrator fast path
// and the original map-based implementation, and between the workspace-based
// dominance-pruned MCKP DP and the original allocate-per-call DP.
//
// The `reference` namespace below is a frozen copy of the seed
// implementations (std::map-based Orchestrator::Solve and the plain value-
// grid DP). The optimized code paths must reproduce their results exactly —
// publish sets, receiver lists, QoE sums (including floating-point
// accumulation order), iteration counts and MCKP choice vectors — across
// hundreds of randomized problems. Any reordering of the hot loop that
// changes results shows up here as a bit-level diff.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/mckp.h"
#include "core/orchestrator.h"
#include "solution_testutil.h"
#include "core/types.h"

namespace gso::core {
namespace reference {

// ---- Frozen seed MCKP DP (no workspace, no pruning, no reach bounds) ----
class RefDpSolver {
 public:
  explicit RefDpSolver(double value_quantum = 1.0, int64_t max_cells = 1 << 16)
      : value_quantum_(value_quantum), max_cells_(max_cells) {}

  MckpResult Solve(const std::vector<MckpClass>& classes,
                   int64_t capacity) const {
    constexpr int64_t kInfWeight = std::numeric_limits<int64_t>::max() / 2;

    MckpResult result;
    result.choice.assign(classes.size(), -1);
    if (classes.empty()) return result;

    double value_sum = 0.0;
    for (const auto& cls : classes) {
      double best = 0.0;
      for (const auto& item : cls.items) best = std::max(best, item.value);
      value_sum += best;
    }
    double quantum = value_quantum_;
    if (value_sum / quantum > static_cast<double>(max_cells_)) {
      quantum = value_sum / static_cast<double>(max_cells_);
    }
    const int64_t cells =
        std::max<int64_t>(1, static_cast<int64_t>(value_sum / quantum));

    std::vector<int64_t> dp(static_cast<size_t>(cells) + 1, kInfWeight);
    dp[0] = 0;
    std::vector<std::vector<int16_t>> choices(
        classes.size(),
        std::vector<int16_t>(static_cast<size_t>(cells) + 1, -1));

    std::vector<int64_t> next(dp.size());
    for (size_t k = 0; k < classes.size(); ++k) {
      const auto& cls = classes[k];
      if (cls.mandatory) {
        std::fill(next.begin(), next.end(), kInfWeight);
      } else {
        next = dp;
      }
      for (size_t j = 0; j < cls.items.size(); ++j) {
        const auto& item = cls.items[j];
        if (item.weight < 0 || item.weight > capacity || item.value < 0) {
          continue;
        }
        const int64_t vq = static_cast<int64_t>(item.value / quantum);
        for (int64_t v = cells; v >= vq; --v) {
          const int64_t base = dp[static_cast<size_t>(v - vq)];
          if (base >= kInfWeight) continue;
          const int64_t cand = base + item.weight;
          if (cand <= capacity && cand < next[static_cast<size_t>(v)]) {
            next[static_cast<size_t>(v)] = cand;
            choices[k][static_cast<size_t>(v)] = static_cast<int16_t>(j);
          }
        }
      }
      dp.swap(next);
    }

    int64_t best_v = -1;
    for (int64_t v = cells; v >= 0; --v) {
      if (dp[static_cast<size_t>(v)] <= capacity) {
        best_v = v;
        break;
      }
    }
    if (best_v < 0) {
      result.feasible = false;
      return result;
    }

    int64_t v = best_v;
    for (size_t k = classes.size(); k-- > 0;) {
      const int16_t j = choices[k][static_cast<size_t>(v)];
      result.choice[k] = j;
      if (j >= 0) {
        const auto& item = classes[k].items[static_cast<size_t>(j)];
        result.total_value += item.value;
        result.total_weight += item.weight;
        v -= static_cast<int64_t>(item.value / quantum);
        GSO_CHECK_GE(v, 0);
      }
    }
    return result;
  }

 private:
  double value_quantum_;
  int64_t max_cells_;
};

// ---- Frozen seed orchestrator (std::map-based control loop) ----
struct Request {
  const Subscription* subscription = nullptr;
  StreamOption option;
};

inline DataRate BudgetOr(const std::map<ClientId, ClientBudget>& budgets,
                         ClientId client, bool uplink) {
  const auto it = budgets.find(client);
  if (it == budgets.end()) return DataRate::PlusInfinity();
  return uplink ? it->second.uplink : it->second.downlink;
}

Solution Solve(const OrchestrationProblem& problem, const RefDpSolver& step1,
               const RefDpSolver& fix_solver) {
  std::map<ClientId, ClientBudget> budgets;
  for (const auto& b : problem.budgets) budgets[b.client] = b;

  std::map<SourceId, std::vector<StreamOption>> active;
  for (const auto& cap : problem.capabilities) {
    auto options = cap.options;
    std::sort(options.begin(), options.end(),
              [](const StreamOption& a, const StreamOption& b) {
                if (!(a.resolution == b.resolution))
                  return b.resolution < a.resolution;
                return b.bitrate < a.bitrate;
              });
    active[cap.source] = std::move(options);
  }

  std::map<ClientId, std::vector<const Subscription*>> per_subscriber;
  for (const auto& sub : problem.subscriptions) {
    if (sub.subscriber == sub.source.client) continue;
    if (!active.count(sub.source)) continue;
    per_subscriber[sub.subscriber].push_back(&sub);
  }

  size_t total_resolutions = 0;
  for (const auto& [_, options] : active) {
    std::set<Resolution, std::less<>> seen;
    for (const auto& o : options) seen.insert(o.resolution);
    total_resolutions += seen.size();
  }
  const int max_iterations = static_cast<int>(total_resolutions) + 1;

  std::map<ClientId, std::vector<Request>> step1_cache;
  std::set<ClientId> dirty;
  for (const auto& [client, _] : per_subscriber) dirty.insert(client);

  Solution solution;
  for (int iteration = 1; iteration <= max_iterations; ++iteration) {
    for (const ClientId& subscriber : dirty) {
      const auto& subs = per_subscriber[subscriber];
      std::vector<MckpClass> classes;
      std::vector<std::vector<StreamOption>> class_options;
      classes.reserve(subs.size());
      for (const Subscription* sub : subs) {
        MckpClass cls;
        std::vector<StreamOption> opts;
        for (const auto& option : active[sub->source]) {
          if (option.resolution <= sub->max_resolution) {
            cls.items.push_back(
                MckpItem{option.bitrate.bps(), option.qoe * sub->priority});
            opts.push_back(option);
          }
        }
        classes.push_back(std::move(cls));
        class_options.push_back(std::move(opts));
      }
      const DataRate downlink = BudgetOr(budgets, subscriber, false);
      const int64_t capacity = downlink.IsFinite()
                                   ? downlink.bps()
                                   : std::numeric_limits<int64_t>::max() / 4;
      const MckpResult result = step1.Solve(classes, capacity);

      std::vector<Request> requests;
      for (size_t k = 0; k < subs.size(); ++k) {
        if (result.choice[k] < 0) continue;
        Request req;
        req.subscription = subs[k];
        req.option = class_options[k][static_cast<size_t>(result.choice[k])];
        requests.push_back(req);
      }
      step1_cache[subscriber] = std::move(requests);
    }
    dirty.clear();

    std::map<SourceId, std::map<Resolution, PublishedStream, std::less<>>>
        merged;
    for (const auto& [subscriber, requests] : step1_cache) {
      for (const auto& req : requests) {
        auto& stream = merged[req.subscription->source][req.option.resolution];
        if (stream.receivers.empty() || req.option.bitrate < stream.bitrate) {
          stream.resolution = req.option.resolution;
          stream.bitrate = req.option.bitrate;
          stream.qoe = req.option.qoe;
        }
        stream.receivers.push_back(
            PublishedStream::Receiver{subscriber, req.subscription->slot});
      }
    }

    std::map<ClientId, std::vector<std::pair<SourceId, PublishedStream*>>>
        per_publisher;
    for (auto& [source, by_res] : merged) {
      for (auto& [res, stream] : by_res) {
        per_publisher[source.client].emplace_back(source, &stream);
      }
    }

    std::optional<ClientId> reduce_client;
    for (auto& [client, streams] : per_publisher) {
      const DataRate uplink = BudgetOr(budgets, client, true);
      if (!uplink.IsFinite()) continue;
      DataRate published;
      for (const auto& [_, stream] : streams) published += stream->bitrate;
      if (published <= uplink) continue;

      DataRate floor_total;
      bool floor_ok = true;
      std::vector<MckpClass> classes;
      std::vector<std::vector<StreamOption>> class_options;
      for (const auto& [source, stream] : streams) {
        MckpClass cls;
        cls.mandatory = true;
        std::vector<StreamOption> opts;
        DataRate cheapest = DataRate::PlusInfinity();
        for (const auto& option : active[source]) {
          if (!(option.resolution == stream->resolution)) continue;
          if (option.bitrate > stream->bitrate) continue;
          cls.items.push_back(MckpItem{option.bitrate.bps(), option.qoe});
          opts.push_back(option);
          cheapest = std::min(cheapest, option.bitrate);
        }
        if (!cheapest.IsFinite()) {
          floor_ok = false;
          break;
        }
        floor_total += cheapest;
        classes.push_back(std::move(cls));
        class_options.push_back(std::move(opts));
      }

      if (floor_ok && floor_total <= uplink) {
        const MckpResult fix = fix_solver.Solve(classes, uplink.bps());
        if (fix.feasible) {
          for (size_t k = 0; k < streams.size(); ++k) {
            GSO_CHECK_GE(fix.choice[k], 0);
            const StreamOption& replacement =
                class_options[k][static_cast<size_t>(fix.choice[k])];
            streams[k].second->bitrate = replacement.bitrate;
            streams[k].second->qoe = replacement.qoe;
          }
          continue;
        }
      }
      reduce_client = client;
      break;
    }

    if (!reduce_client) {
      for (auto& [source, by_res] : merged) {
        for (auto& [res, stream] : by_res) {
          std::sort(stream.receivers.begin(), stream.receivers.end());
          solution.publish[source].push_back(stream);
        }
      }
      for (const auto& [subscriber, requests] : step1_cache) {
        for (const auto& req : requests) {
          solution.step1_qoe += req.option.qoe * req.subscription->priority;
          const auto& streams = merged[req.subscription->source];
          const auto it = streams.find(req.option.resolution);
          GSO_CHECK(it != streams.end());
          solution
              .per_subscriber[{subscriber, req.subscription->slot}]
                             [req.subscription->source] =
              Solution::Assigned{it->second.resolution, it->second.bitrate};
          solution.total_qoe += it->second.qoe * req.subscription->priority;
        }
      }
      solution.iterations = iteration;
      return solution;
    }

    Resolution highest{0, 0};
    SourceId victim_source;
    for (const auto& [source, stream] : per_publisher[*reduce_client]) {
      if (highest < stream->resolution || highest.PixelCount() == 0) {
        highest = stream->resolution;
        victim_source = source;
      }
    }
    auto& options = active[victim_source];
    options.erase(std::remove_if(options.begin(), options.end(),
                                 [&](const StreamOption& o) {
                                   return o.resolution == highest;
                                 }),
                  options.end());
    for (const auto& [subscriber, subs] : per_subscriber) {
      for (const Subscription* sub : subs) {
        if (sub->source == victim_source) {
          dirty.insert(subscriber);
          break;
        }
      }
    }
  }
  GSO_CHECK(false);
  return solution;
}

}  // namespace reference

namespace {

using testutil::ExpectBitIdentical;
using testutil::RandomProblem;
using testutil::ShapeParams;

const ShapeParams kShapes[] = {
    {3, 3, 0.3, 0.7},  {5, 5, 0.3, 0.7},  {8, 5, 0.5, 0.7},
    {10, 6, 0.2, 0.5}, {6, 2, 0.8, 0.9},
};

// The headline equivalence property: the compiled fast path reproduces the
// seed implementation bit-for-bit on >= 500 randomized problems.
TEST(OrchestratorEquivalence, FastPathMatchesReferenceBitIdentical) {
  DpMckpSolver dp;
  Orchestrator orchestrator(&dp);
  const reference::RefDpSolver ref_dp;
  int cases = 0;
  for (const auto& shape : kShapes) {
    for (uint64_t seed = 1; seed <= 110; ++seed) {
      const auto problem = RandomProblem(shape, seed);
      const Solution fast = orchestrator.Solve(SolveRequest::Cold(problem));
      const Solution ref = reference::Solve(problem, ref_dp, ref_dp);
      ExpectBitIdentical(fast, ref, "shape", seed);
      ++cases;
      if (::testing::Test::HasFailure()) {
        FAIL() << "first divergence at shape clients=" << shape.clients
               << " seed " << seed;
      }
    }
  }
  EXPECT_GE(cases, 500);
}

// Reusing one orchestrator (and thus its workspace) across many different
// problems must not leak state between solves.
TEST(OrchestratorEquivalence, WorkspaceReuseIsStateless) {
  DpMckpSolver dp;
  Orchestrator reused(&dp);
  const reference::RefDpSolver ref_dp;
  // Alternate shapes so buffers shrink and grow between solves.
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    for (const auto& shape : {kShapes[3], kShapes[0], kShapes[2]}) {
      const auto problem = RandomProblem(shape, seed);
      const Solution fast = reused.Solve(SolveRequest::Cold(problem));
      const Solution ref = reference::Solve(problem, ref_dp, ref_dp);
      ExpectBitIdentical(fast, ref, "reuse", seed);
    }
  }
}

// Multi-slot subscribers with edges out of (slot, source) order and
// repeated keys, solved warm by one orchestrator across a delta stream
// that empties slots and subscribers: its per_subscriber, updated in place
// by the ordered walk, must equal the reference's map assignment, where
// the last request for a key wins.
TEST(OrchestratorEquivalence, MultiSlotDeltaStreamMatchesReference) {
  DpMckpSolver dp;
  const Orchestrator reused(&dp);
  const reference::RefDpSolver ref_dp;
  constexpr int kClients = 7;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    OrchestrationProblem problem = testutil::MultiSlotProblem(seed, kClients);
    Rng rng(seed * 131 + 3);
    for (int step = 0; step < 30; ++step) {
      if (step > 0) testutil::ApplyMultiSlotDelta(problem, rng, kClients);
      const Solution fast = reused.Solve(SolveRequest::Warm(problem));
      const Solution ref = reference::Solve(problem, ref_dp, ref_dp);
      SCOPED_TRACE(testing::Message() << "step " << step);
      ExpectBitIdentical(fast, ref, "multi-slot", seed);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// Dominance pruning + reach bounds + workspace reuse must leave the DP's
// observable behaviour untouched: identical choice vectors, values, weights
// and feasibility versus the seed DP on randomized instances (including
// mandatory classes, oversized and negative items).
TEST(OrchestratorEquivalence, DpSolverMatchesReferenceExactly) {
  Rng rng(2024);
  DpMckpSolver dp;
  const reference::RefDpSolver ref;
  MckpWorkspace workspace;
  for (int trial = 0; trial < 600; ++trial) {
    std::vector<MckpClass> classes;
    const int n_classes = static_cast<int>(rng.UniformInt(0, 6));
    for (int k = 0; k < n_classes; ++k) {
      MckpClass cls;
      cls.mandatory = rng.Bernoulli(0.15);
      const int n_items = static_cast<int>(rng.UniformInt(1, 8));
      for (int j = 0; j < n_items; ++j) {
        int64_t weight = rng.UniformInt(0, 3'000'000);
        if (rng.Bernoulli(0.05)) weight = -weight;  // filtered by both
        double value = rng.Uniform(0, 1500);
        if (rng.Bernoulli(0.05)) value = -value;  // filtered by both
        if (rng.Bernoulli(0.3)) value = std::floor(value);  // grid-aligned
        cls.items.push_back(MckpItem{weight, value});
      }
      classes.push_back(cls);
    }
    const int64_t capacity = rng.UniformInt(0, 5'000'000);
    const MckpResult a = dp.Solve(classes, capacity, &workspace);
    const MckpResult b = ref.Solve(classes, capacity);
    ASSERT_EQ(a.feasible, b.feasible) << "trial " << trial;
    ASSERT_EQ(a.choice, b.choice) << "trial " << trial;
    EXPECT_EQ(a.total_value, b.total_value) << "trial " << trial;
    EXPECT_EQ(a.total_weight, b.total_weight) << "trial " << trial;
  }
}

// Same property under an aggressive value grid (tiny max_cells forces the
// quantum rescale path where items collide into shared cells).
TEST(OrchestratorEquivalence, DpMatchesReferenceUnderCoarseQuantization) {
  Rng rng(77);
  DpMckpSolver dp(/*max_cells=*/24);
  const reference::RefDpSolver ref(1.0, /*max_cells=*/24);
  MckpWorkspace workspace;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<MckpClass> classes;
    const int n_classes = static_cast<int>(rng.UniformInt(1, 5));
    for (int k = 0; k < n_classes; ++k) {
      MckpClass cls;
      cls.mandatory = rng.Bernoulli(0.2);
      const int n_items = static_cast<int>(rng.UniformInt(1, 6));
      for (int j = 0; j < n_items; ++j) {
        cls.items.push_back(MckpItem{rng.UniformInt(10'000, 2'000'000),
                                     rng.Uniform(1, 2000)});
      }
      classes.push_back(cls);
    }
    const int64_t capacity = rng.UniformInt(50'000, 4'000'000);
    const MckpResult a = dp.Solve(classes, capacity, &workspace);
    const MckpResult b = ref.Solve(classes, capacity);
    ASSERT_EQ(a.feasible, b.feasible) << "trial " << trial;
    ASSERT_EQ(a.choice, b.choice) << "trial " << trial;
    EXPECT_EQ(a.total_value, b.total_value) << "trial " << trial;
    EXPECT_EQ(a.total_weight, b.total_weight) << "trial " << trial;
  }
}

// Pruning must never change whether the DP agrees with the exhaustive
// optimum (within the value-quantization tolerance).
TEST(OrchestratorEquivalence, PruningPreservesDpVsExhaustiveAgreement) {
  Rng rng(9);
  DpMckpSolver dp;
  ExhaustiveMckpSolver ex;
  const reference::RefDpSolver ref;
  MckpWorkspace workspace;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<MckpClass> classes;
    const int n_classes = static_cast<int>(rng.UniformInt(1, 4));
    for (int k = 0; k < n_classes; ++k) {
      MckpClass cls;
      const int n_items = static_cast<int>(rng.UniformInt(1, 5));
      for (int j = 0; j < n_items; ++j) {
        cls.items.push_back(MckpItem{rng.UniformInt(50'000, 2'000'000),
                                     rng.Uniform(10, 1000)});
      }
      classes.push_back(cls);
    }
    const int64_t capacity = rng.UniformInt(100'000, 4'000'000);
    const MckpResult pruned = dp.Solve(classes, capacity, &workspace);
    const MckpResult unpruned = ref.Solve(classes, capacity);
    const MckpResult exact = ex.Solve(classes, capacity);
    // Pruned == unpruned exactly ...
    ASSERT_EQ(pruned.choice, unpruned.choice) << "trial " << trial;
    EXPECT_EQ(pruned.total_value, unpruned.total_value) << "trial " << trial;
    // ... and both sit within the quantization bound of the true optimum.
    EXPECT_LE(pruned.total_value, exact.total_value + 1e-9)
        << "trial " << trial;
    EXPECT_GE(pruned.total_value,
              exact.total_value - static_cast<double>(n_classes) - 1e-9)
        << "trial " << trial;
  }
}

// Solves one instance with the production DP (hot-path entry point,
// reused workspace and result) and with the frozen reference; everything
// observable must match bit for bit.
void ExpectDpMatchesReference(const DpMckpSolver& dp,
                              const reference::RefDpSolver& ref,
                              const std::vector<MckpClass>& classes,
                              int64_t capacity, MckpWorkspace* workspace,
                              MckpResult* result) {
  dp.Solve(classes, capacity, workspace, result);
  const MckpResult expected = ref.Solve(classes, capacity);
  EXPECT_EQ(result->feasible, expected.feasible);
  EXPECT_EQ(result->choice, expected.choice);
  EXPECT_EQ(result->total_value, expected.total_value);
  EXPECT_EQ(result->total_weight, expected.total_weight);
}

// Sum over classes of the heaviest item that fits `capacity`: the bound
// that picks the DP's cell width (int32_t below 2^30, int64_t otherwise).
int64_t EligibleWeightSum(const std::vector<MckpClass>& classes,
                          int64_t capacity) {
  int64_t sum = 0;
  for (const auto& cls : classes) {
    int64_t heaviest = 0;
    for (const auto& item : cls.items) {
      if (item.weight >= 0 && item.weight <= capacity && item.value >= 0) {
        heaviest = std::max(heaviest, item.weight);
      }
    }
    sum += heaviest;
  }
  return sum;
}

// The shape the DP kernel is tuned for: a mesh subscriber's knapsack, one
// FineLadder(5) class per watched publisher, priority-weighted so the value
// grid is capped at its full 65,536 cells.
TEST(OrchestratorEquivalence, DpMatchesReferenceOnMeshShapedInstances) {
  Rng rng(31);
  const DpMckpSolver dp;
  const reference::RefDpSolver ref;
  MckpWorkspace workspace;
  MckpResult result;
  const auto ladder = FineLadder(5);
  for (const int n_classes : {15, 31}) {
    std::vector<MckpClass> classes(static_cast<size_t>(n_classes));
    double value_sum = 0.0;
    for (auto& cls : classes) {
      const double priority = rng.Uniform(4, 12);
      double best = 0.0;
      for (const auto& option : ladder) {
        cls.items.push_back(
            MckpItem{option.bitrate.bps(), option.qoe * priority});
        best = std::max(best, option.qoe * priority);
      }
      value_sum += best;
    }
    ASSERT_GT(value_sum, 65536.0) << "grid must hit the cell cap";
    for (int64_t kbps = 800; kbps <= 8000; kbps += 600) {
      SCOPED_TRACE(testing::Message() << n_classes << " classes, " << kbps
                                      << " kbps");
      ExpectDpMatchesReference(dp, ref, classes, kbps * 1000, &workspace,
                               &result);
    }
  }
}

// Weights large enough to push cap_eff to 2^30 and beyond, which switches
// the DP to int64_t cells. Capacities straddle the switch, and
// INT64_MAX / 4 is what the orchestrator passes for an infinite downlink.
TEST(OrchestratorEquivalence, DpMatchesReferenceOnWideInstances) {
  constexpr int64_t kSwitch = int64_t{1} << 30;
  const int64_t kInfiniteDownlink = std::numeric_limits<int64_t>::max() / 4;
  Rng rng(64);
  const DpMckpSolver dp;
  const reference::RefDpSolver ref;
  MckpWorkspace workspace;
  MckpResult result;
  // Weights at the switch itself: a cap_eff of exactly 2^30 must not run on
  // int32_t cells, where 2^30 marks an unreachable cell.
  const std::vector<MckpClass> edge = {
      MckpClass{{{kSwitch, 10.0}, {kSwitch / 2, 4.0}}, false},
      MckpClass{{{kSwitch, 20.0}, {kSwitch - 1, 15.0}}, false},
      MckpClass{{{1, 1.0}, {kSwitch / 2, 6.0}}, true},
  };
  for (const int64_t capacity : {kSwitch - 1, kSwitch, kSwitch + 1}) {
    SCOPED_TRACE(testing::Message() << "edge, capacity " << capacity);
    ExpectDpMatchesReference(dp, ref, edge, capacity, &workspace, &result);
  }
  for (int trial = 0; trial < 80; ++trial) {
    std::vector<MckpClass> classes;
    const int n_classes = static_cast<int>(rng.UniformInt(4, 8));
    for (int k = 0; k < n_classes; ++k) {
      MckpClass cls;
      cls.mandatory = rng.Bernoulli(0.15);
      const int n_items = static_cast<int>(rng.UniformInt(1, 8));
      for (int j = 0; j < n_items; ++j) {
        double value = rng.Uniform(0, 1500);
        if (rng.Bernoulli(0.3)) value = std::floor(value);
        cls.items.push_back(
            MckpItem{rng.UniformInt(kSwitch / 4, 2 * kSwitch), value});
      }
      classes.push_back(cls);
    }
    ASSERT_GE(EligibleWeightSum(classes, kInfiniteDownlink), kSwitch);
    for (const int64_t capacity :
         {kSwitch - 1, kSwitch, kSwitch + 1, 3 * kSwitch, kInfiniteDownlink}) {
      SCOPED_TRACE(testing::Message()
                   << "trial " << trial << ", capacity " << capacity);
      ExpectDpMatchesReference(dp, ref, classes, capacity, &workspace,
                               &result);
    }
  }
}

// Step-3 repair knapsacks: every class is mandatory and holds the ladder
// rungs of one published resolution at or below the stream's bitrate;
// uplinks run from below the rung floor (infeasible) to above the total.
TEST(OrchestratorEquivalence, DpMatchesReferenceOnAllMandatoryFixShapes) {
  Rng rng(3);
  const DpMckpSolver dp;
  const reference::RefDpSolver ref;
  MckpWorkspace workspace;
  MckpResult result;
  const auto ladder = FineLadder(5);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<MckpClass> classes;
    int64_t floor = 0;
    int64_t total = 0;
    const int n_streams = static_cast<int>(rng.UniformInt(1, 6));
    for (int k = 0; k < n_streams; ++k) {
      const StreamOption& current = ladder[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(ladder.size()) - 1))];
      MckpClass cls;
      cls.mandatory = true;
      int64_t cheapest = current.bitrate.bps();
      for (const auto& option : ladder) {
        if (!(option.resolution == current.resolution)) continue;
        if (option.bitrate > current.bitrate) continue;
        cls.items.push_back(MckpItem{option.bitrate.bps(), option.qoe});
        cheapest = std::min(cheapest, option.bitrate.bps());
      }
      floor += cheapest;
      total += current.bitrate.bps();
      classes.push_back(cls);
    }
    const int64_t capacity = rng.UniformInt(
        std::max<int64_t>(0, floor - 200'000), total + 200'000);
    SCOPED_TRACE(testing::Message()
                 << "trial " << trial << ", capacity " << capacity);
    ExpectDpMatchesReference(dp, ref, classes, capacity, &workspace, &result);
  }
}

// ---- The value band: DpMckpSolver's LP bound U and greedy floor L ----

// One step of a class's upper hull over quantized values.
struct Step {
  int64_t weight;
  int64_t value;
};

// Every class's upper-hull steps over quantized values (the empty choice
// included), taken in order of efficiency, and the hulls' summed value at
// weight 0. Items heavier than `capacity` are left out. Computed
// independently of the solver, by gift wrapping each class.
std::pair<int64_t, std::vector<Step>> HullSteps(
    const std::vector<MckpClass>& classes, double value_quantum = 1.0,
    int64_t max_cells = 1 << 16,
    int64_t capacity = std::numeric_limits<int64_t>::max()) {
  double value_sum = 0.0;
  for (const auto& cls : classes) {
    double best = 0.0;
    for (const auto& item : cls.items) best = std::max(best, item.value);
    value_sum += best;
  }
  double quantum = value_quantum;
  if (value_sum / quantum > static_cast<double>(max_cells)) {
    quantum = value_sum / static_cast<double>(max_cells);
  }
  // a->b is at least as efficient as a->c.
  const auto steeper = [](const Step& a, const Step& b, const Step& c) {
    return static_cast<__int128>(b.value - a.value) * (c.weight - a.weight) >=
           static_cast<__int128>(c.value - a.value) * (b.weight - a.weight);
  };
  int64_t base = 0;
  std::vector<Step> steps;
  for (const auto& cls : classes) {
    std::vector<Step> points;
    Step at{0, 0};
    for (const auto& item : cls.items) {
      if (item.weight < 0 || item.weight > capacity || item.value < 0) {
        continue;
      }
      const auto vq = static_cast<int64_t>(item.value / quantum);
      if (item.weight == 0) {
        at.value = std::max(at.value, vq);
      } else {
        points.push_back(Step{item.weight, vq});
      }
    }
    base += at.value;
    for (;;) {
      const Step* next = nullptr;
      for (const Step& p : points) {
        if (p.weight <= at.weight || p.value <= at.value) continue;
        if (next == nullptr || !steeper(at, *next, p) ||
            (steeper(at, p, *next) && p.weight > next->weight)) {
          next = &p;
        }
      }
      if (next == nullptr) break;
      steps.push_back(
          Step{next->weight - at.weight, next->value - at.value});
      at = *next;
    }
  }
  std::stable_sort(steps.begin(), steps.end(),
                   [](const Step& a, const Step& b) {
                     return static_cast<__int128>(a.value) * b.weight >
                            static_cast<__int128>(b.value) * a.weight;
                   });
  return {base, steps};
}

// Capacities at which the band's greedy changes shape: the running weight
// sums of the hull steps in order of efficiency.
std::vector<int64_t> LpBreakpoints(const std::vector<MckpClass>& classes,
                                   double value_quantum = 1.0,
                                   int64_t max_cells = 1 << 16) {
  std::vector<int64_t> breakpoints;
  int64_t sum = 0;
  for (const Step& step : HullSteps(classes, value_quantum, max_cells).second) {
    sum += step.weight;
    breakpoints.push_back(sum);
  }
  return breakpoints;
}

// Dantzig's greedy floor (quantum 1): the hulls' values at weight 0 plus
// every whole step taken before the first that does not fit.
int64_t DantzigFloor(const std::vector<MckpClass>& classes, int64_t capacity) {
  auto [floor, steps] = HullSteps(classes, 1.0, 1 << 16, capacity);
  for (const Step& step : steps) {
    if (step.weight > capacity) break;
    capacity -= step.weight;
    floor += step.value;
  }
  return floor;
}

// ExpectDpMatchesReference at, one below and one above every LP breakpoint
// of `classes`, plus capacity 0.
void ExpectDpMatchesReferenceAtBreakpoints(
    const DpMckpSolver& dp, const reference::RefDpSolver& ref,
    const std::vector<MckpClass>& classes, MckpWorkspace* workspace,
    MckpResult* result, double value_quantum = 1.0,
    int64_t max_cells = 1 << 16) {
  std::vector<int64_t> capacities = {0};
  for (const int64_t b : LpBreakpoints(classes, value_quantum, max_cells)) {
    capacities.insert(capacities.end(), {b - 1, b, b + 1});
  }
  for (const int64_t capacity : capacities) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    ExpectDpMatchesReference(dp, ref, classes, capacity, workspace, result);
  }
}

// `n_classes` optional classes of 1-`max_items` items: integral or
// fractional values up to `max_value`, weights in [min_weight, max_weight].
std::vector<MckpClass> RandomClasses(Rng& rng, int n_classes, int max_items,
                                     double max_value, int64_t min_weight,
                                     int64_t max_weight) {
  std::vector<MckpClass> classes(static_cast<size_t>(n_classes));
  for (auto& cls : classes) {
    const int n_items = static_cast<int>(rng.UniformInt(1, max_items));
    for (int j = 0; j < n_items; ++j) {
      double value = rng.Uniform(0, max_value);
      if (rng.Bernoulli(0.5)) value = std::floor(value);
      cls.items.push_back(
          MckpItem{rng.UniformInt(min_weight, max_weight), value});
    }
  }
  return classes;
}

// At an LP breakpoint the greedy takes whole steps only, so L == U and the
// band is at its narrowest; one bit either side the fractional step opens
// it again.
TEST(OrchestratorEquivalence, BandMatchesReferenceAtLpBreakpoints) {
  Rng rng(101);
  const DpMckpSolver dp;
  const reference::RefDpSolver ref;
  MckpWorkspace workspace;
  MckpResult result;
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const auto classes =
        RandomClasses(rng, static_cast<int>(rng.UniformInt(1, 7)), 8, 1500,
                      1'000, 2'000'000);
    ExpectDpMatchesReferenceAtBreakpoints(dp, ref, classes, &workspace,
                                          &result);
  }
}

// Weight-0 items lift a class's hull at weight 0 (into both L and U) and
// must never be mistaken for a step.
TEST(OrchestratorEquivalence, BandMatchesReferenceWithZeroWeightItems) {
  Rng rng(102);
  const DpMckpSolver dp;
  const reference::RefDpSolver ref;
  MckpWorkspace workspace;
  MckpResult result;
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    auto classes = RandomClasses(rng, static_cast<int>(rng.UniformInt(1, 6)),
                                 6, 1200, 1'000, 1'500'000);
    for (auto& cls : classes) {
      for (auto& item : cls.items) {
        if (rng.Bernoulli(0.3)) item.weight = 0;
      }
      if (rng.Bernoulli(0.3)) cls.items.push_back(MckpItem{0, 0.0});
    }
    ExpectDpMatchesReferenceAtBreakpoints(dp, ref, classes, &workspace,
                                          &result);
  }
}

// Steps of equal efficiency in several classes, and identical classes: the
// greedy's order among them is arbitrary, and no order may move the result.
TEST(OrchestratorEquivalence, BandMatchesReferenceOnEqualEfficiencySteps) {
  Rng rng(103);
  const DpMckpSolver dp;
  const reference::RefDpSolver ref;
  MckpWorkspace workspace;
  MckpResult result;
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    // Every item lies on one of two lines through the origin.
    const int64_t unit = rng.UniformInt(1'000, 50'000);
    std::vector<MckpClass> classes(static_cast<size_t>(rng.UniformInt(2, 6)));
    for (auto& cls : classes) {
      const int n_items = static_cast<int>(rng.UniformInt(1, 5));
      for (int j = 0; j < n_items; ++j) {
        const int64_t units = rng.UniformInt(1, 40);
        const double slope = rng.Bernoulli(0.5) ? 3.0 : 7.0;
        cls.items.push_back(MckpItem{units * unit,
                                     slope * static_cast<double>(units)});
      }
    }
    classes.push_back(classes.front());
    classes.push_back(classes.front());
    ExpectDpMatchesReferenceAtBreakpoints(dp, ref, classes, &workspace,
                                          &result);
  }
}

// An infinite downlink (INT64_MAX / 4) with weights that need int64_t cells:
// the greedy takes every step, and the fractional product needs __int128.
TEST(OrchestratorEquivalence, BandMatchesReferenceOnInfiniteDownlink) {
  constexpr int64_t kSwitch = int64_t{1} << 30;
  const int64_t kInfiniteDownlink = std::numeric_limits<int64_t>::max() / 4;
  Rng rng(104);
  const DpMckpSolver dp;
  const reference::RefDpSolver ref;
  MckpWorkspace workspace;
  MckpResult result;
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    auto classes = RandomClasses(rng, static_cast<int>(rng.UniformInt(2, 6)),
                                 6, 1500, kSwitch / 4, 4 * kSwitch);
    if (rng.Bernoulli(0.5)) {
      classes.back().items.push_back(
          MckpItem{kInfiniteDownlink / 2, rng.Uniform(0, 3000)});
    }
    ExpectDpMatchesReference(dp, ref, classes, kInfiniteDownlink, &workspace,
                             &result);
    ExpectDpMatchesReferenceAtBreakpoints(dp, ref, classes, &workspace,
                                          &result);
  }
}

// The max_cells rescale: the band is cut from the rescaled grid.
TEST(OrchestratorEquivalence, BandMatchesReferenceUnderMaxCellsRescale) {
  Rng rng(105);
  for (const int64_t max_cells : {8, 24, 200}) {
    const DpMckpSolver dp(max_cells);
    const reference::RefDpSolver ref(1.0, max_cells);
    MckpWorkspace workspace;
    MckpResult result;
    for (int trial = 0; trial < 30; ++trial) {
      SCOPED_TRACE(testing::Message()
                   << "max_cells " << max_cells << ", trial " << trial);
      const auto classes =
          RandomClasses(rng, static_cast<int>(rng.UniformInt(1, 6)), 6, 2000,
                        10'000, 2'000'000);
      ExpectDpMatchesReferenceAtBreakpoints(dp, ref, classes, &workspace,
                                            &result, 1.0, max_cells);
    }
  }
}

// One class worth far more than the rest: its hull steps come first, and
// the floor lo_k of every class before it stays at 0.
TEST(OrchestratorEquivalence, BandMatchesReferenceWithOneDominantClass) {
  Rng rng(106);
  const DpMckpSolver dp;
  const reference::RefDpSolver ref;
  MckpWorkspace workspace;
  MckpResult result;
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    auto classes = RandomClasses(rng, static_cast<int>(rng.UniformInt(6, 14)),
                                 5, 40, 10'000, 600'000);
    const auto dominant = RandomClasses(rng, 1, 8, 20000, 100'000, 3'000'000);
    const auto at = static_cast<ptrdiff_t>(
        rng.UniformInt(0, static_cast<int64_t>(classes.size())));
    classes.insert(classes.begin() + at, dominant.front());
    ExpectDpMatchesReferenceAtBreakpoints(dp, ref, classes, &workspace,
                                          &result);
  }
}

// Mandatory classes set L = 0, so the band has no floor; their hull steps
// still bound the top of the grid.
TEST(OrchestratorEquivalence, BandMatchesReferenceOnMandatoryMixes) {
  Rng rng(107);
  const DpMckpSolver dp;
  const reference::RefDpSolver ref;
  MckpWorkspace workspace;
  MckpResult result;
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    auto classes = RandomClasses(rng, static_cast<int>(rng.UniformInt(1, 6)),
                                 6, 1500, 1'000, 1'500'000);
    for (auto& cls : classes) cls.mandatory = rng.Bernoulli(0.4);
    ExpectDpMatchesReferenceAtBreakpoints(dp, ref, classes, &workspace,
                                          &result);
  }
}

// ---- Reduced-cost elimination: the options no selection worth >= L uses
// are dropped before the passes (DpMckpSolver, only when L > 0) ----

// Optional classes whose skip the last solve eliminated, which then ran as
// mandatory passes.
int SkipsEliminated(const std::vector<MckpClass>& classes,
                    const MckpWorkspace& workspace) {
  int eliminated = 0;
  for (size_t k = 0; k < classes.size(); ++k) {
    if (!classes[k].mandatory && workspace.need_item[k]) ++eliminated;
  }
  return eliminated;
}

// Classes that are copies of one ladder: every option ties with its copies
// in value, weight and reduced value, and the first-minimum tie-break alone
// decides between them.
TEST(OrchestratorEquivalence, ReductionMatchesReferenceOnIdenticalLadders) {
  const DpMckpSolver dp;
  const reference::RefDpSolver ref;
  MckpWorkspace workspace;
  MckpResult result;
  int skips = 0;
  for (const int n_classes : {2, 5, 12}) {
    for (const double priority : {1.0, 6.0}) {
      MckpClass cls;
      for (const auto& option : FineLadder(5)) {
        cls.items.push_back(
            MckpItem{option.bitrate.bps(), option.qoe * priority});
      }
      const std::vector<MckpClass> classes(static_cast<size_t>(n_classes),
                                           cls);
      for (int64_t kbps = 100; kbps <= 12000; kbps += 700) {
        SCOPED_TRACE(testing::Message() << n_classes << " classes x"
                                        << priority << ", " << kbps << " kbps");
        ExpectDpMatchesReference(dp, ref, classes, kbps * 1000, &workspace,
                                 &result);
        skips += SkipsEliminated(classes, workspace);
      }
      if (n_classes > 5) continue;  // the reference is slow on wide grids
      SCOPED_TRACE(testing::Message() << n_classes << " classes x" << priority);
      ExpectDpMatchesReferenceAtBreakpoints(dp, ref, classes, &workspace,
                                            &result);
    }
  }
  EXPECT_GT(skips, 0);
}

// Classes of large, efficient items next to classes of small, inefficient
// ones: once a large step no longer fits, small steps behind it still do,
// so the continued greedy's floor L rises above Dantzig's.
TEST(OrchestratorEquivalence, ReductionMatchesReferenceAboveDantzigsFloor) {
  Rng rng(108);
  const DpMckpSolver dp;
  const reference::RefDpSolver ref;
  MckpWorkspace workspace;
  MckpResult result;
  int raised = 0;
  int skips = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<MckpClass> classes(static_cast<size_t>(rng.UniformInt(3, 8)));
    for (auto& cls : classes) {
      const bool large = rng.Bernoulli(0.5);
      const int n_items = static_cast<int>(rng.UniformInt(1, 4));
      for (int j = 0; j < n_items; ++j) {
        cls.items.push_back(
            large ? MckpItem{rng.UniformInt(500'000, 2'000'000),
                             static_cast<double>(rng.UniformInt(500, 1500))}
                  : MckpItem{rng.UniformInt(10'000, 100'000),
                             static_cast<double>(rng.UniformInt(5, 40))});
      }
    }
    const int64_t capacity = rng.UniformInt(200'000, 3'000'000);
    SCOPED_TRACE(testing::Message()
                 << "trial " << trial << ", capacity " << capacity);
    ExpectDpMatchesReference(dp, ref, classes, capacity, &workspace, &result);
    // Integral values and quantum 1: the total is the quantized optimum.
    const int64_t dantzig = DantzigFloor(classes, capacity);
    EXPECT_GE(workspace.band_lower, dantzig);
    EXPECT_LE(workspace.band_lower, static_cast<int64_t>(result.total_value));
    if (workspace.band_lower > dantzig) ++raised;
    skips += SkipsEliminated(classes, workspace);
  }
  EXPECT_GE(raised, 20);
  EXPECT_GT(skips, 0);
}

// A capacity that holds every class's heaviest item: every hull step fits,
// lambda = 0, and the reduced value of an option is its value, so only each
// class's most valuable survivor (or a tie) may remain.
TEST(OrchestratorEquivalence, ReductionMatchesReferenceWhenEverythingFits) {
  Rng rng(109);
  const DpMckpSolver dp;
  const reference::RefDpSolver ref;
  MckpWorkspace workspace;
  MckpResult result;
  int skips = 0;
  for (int trial = 0; trial < 100; ++trial) {
    auto classes = RandomClasses(rng, static_cast<int>(rng.UniformInt(1, 8)),
                                 6, 1500, 0, 2'000'000);
    // Ties in value at different weights, and a class worth nothing.
    if (rng.Bernoulli(0.5)) {
      classes.front().items.push_back(classes.front().items.front());
      classes.front().items.back().weight += 1;
    }
    if (rng.Bernoulli(0.3)) classes.push_back(MckpClass{{{1'000, 0.0}}, false});
    for (const int64_t capacity :
         {EligibleWeightSum(classes, int64_t{1} << 40),
          EligibleWeightSum(classes, int64_t{1} << 40) + 1, int64_t{1} << 40}) {
      SCOPED_TRACE(testing::Message()
                   << "trial " << trial << ", capacity " << capacity);
      ExpectDpMatchesReference(dp, ref, classes, capacity, &workspace,
                               &result);
      EXPECT_EQ(workspace.lambda_p, 0);
      EXPECT_EQ(workspace.lambda_q, 1);
      skips += SkipsEliminated(classes, workspace);
    }
  }
  EXPECT_GT(skips, 0);
}

// Items the pruning drops before the reduction ever sees them (over the
// capacity, negative value or weight) next to weight-0 items, which are
// worth their value at any lambda.
TEST(OrchestratorEquivalence, ReductionMatchesReferenceWithIneligibleItems) {
  Rng rng(110);
  const DpMckpSolver dp;
  const reference::RefDpSolver ref;
  MckpWorkspace workspace;
  MckpResult result;
  int skips = 0;
  for (int trial = 0; trial < 80; ++trial) {
    auto classes = RandomClasses(rng, static_cast<int>(rng.UniformInt(1, 7)),
                                 6, 1500, 1'000, 1'500'000);
    for (auto& cls : classes) {
      for (auto& item : cls.items) {
        const int64_t kind = rng.UniformInt(0, 9);
        if (kind == 0) item.weight = 0;
        if (kind == 1) item.weight = 50'000'000;  // over every capacity
        if (kind == 2) item.value = -item.value;
        if (kind == 3) item.weight = -item.weight;
      }
    }
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    std::vector<int64_t> capacities = {0};
    for (const int64_t b : LpBreakpoints(classes)) {
      capacities.insert(capacities.end(), {b - 1, b, b + 1});
    }
    for (const int64_t capacity : capacities) {
      SCOPED_TRACE(testing::Message() << "capacity " << capacity);
      ExpectDpMatchesReference(dp, ref, classes, capacity, &workspace,
                               &result);
      skips += SkipsEliminated(classes, workspace);
    }
  }
  EXPECT_GT(skips, 0);
}

// int64_t cells: capacities at and above 2^30 and the infinite downlink,
// where p * capacity and q * L need __int128.
TEST(OrchestratorEquivalence, ReductionMatchesReferenceOnWideCells) {
  constexpr int64_t kSwitch = int64_t{1} << 30;
  const int64_t kInfiniteDownlink = std::numeric_limits<int64_t>::max() / 4;
  Rng rng(111);
  const DpMckpSolver dp;
  const reference::RefDpSolver ref;
  MckpWorkspace workspace;
  MckpResult result;
  int skips = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto classes =
        RandomClasses(rng, static_cast<int>(rng.UniformInt(3, 8)), 8, 1500,
                      kSwitch / 4, 2 * kSwitch);
    for (const int64_t capacity :
         {kSwitch, kSwitch + 1, 3 * kSwitch, 5 * kSwitch, kInfiniteDownlink}) {
      SCOPED_TRACE(testing::Message()
                   << "trial " << trial << ", capacity " << capacity);
      ExpectDpMatchesReference(dp, ref, classes, capacity, &workspace,
                               &result);
      skips += SkipsEliminated(classes, workspace);
    }
  }
  EXPECT_GT(skips, 0);
}

// A rescaled quantum: many items share a cell, so reduced values tie often.
TEST(OrchestratorEquivalence, ReductionMatchesReferenceUnderCoarseQuantum) {
  Rng rng(112);
  int skips = 0;
  for (const int64_t max_cells : {8, 24, 200}) {
    const DpMckpSolver dp(max_cells);
    const reference::RefDpSolver ref(1.0, max_cells);
    MckpWorkspace workspace;
    MckpResult result;
    for (int trial = 0; trial < 40; ++trial) {
      SCOPED_TRACE(testing::Message()
                   << "max_cells " << max_cells << ", trial " << trial);
      const auto classes =
          RandomClasses(rng, static_cast<int>(rng.UniformInt(2, 8)), 6, 2000,
                        10'000, 2'000'000);
      for (const int64_t b : LpBreakpoints(classes, 1.0, max_cells)) {
        for (const int64_t capacity : {b - 1, b, b + 1}) {
          SCOPED_TRACE(testing::Message() << "capacity " << capacity);
          ExpectDpMatchesReference(dp, ref, classes, capacity, &workspace,
                                   &result);
          skips += SkipsEliminated(classes, workspace);
        }
      }
    }
  }
  EXPECT_GT(skips, 0);
}

// Values m * q0 whose sum, rescaled to max_cells = sum of m, rounds to one
// cell less than the sum of the rescaled items: with every item taken, L
// lies above the grid, so the floor (and with it the reduction) is dropped.
TEST(OrchestratorEquivalence, BandFloorResetsWhenLExceedsTheGrid) {
  struct Case {
    double q0;
    std::vector<int> units;
  };
  const Case cases[] = {{16.423128466616717, {35, 4, 40}},
                        {33.93492367395075, {57, 17, 4, 47}}};
  for (const Case& c : cases) {
    std::vector<MckpClass> classes;
    int64_t max_cells = 0;
    for (const int units : c.units) {
      const double value = units * c.q0;
      classes.push_back(MckpClass{{{100'000 * units, value},
                                   {40'000 * units, value / 3}},
                                  false});
      max_cells += units;
    }
    const DpMckpSolver dp(max_cells);
    const reference::RefDpSolver ref(1.0, max_cells);
    MckpWorkspace workspace;
    MckpResult result;
    SCOPED_TRACE(testing::Message() << "max_cells " << max_cells);
    ExpectDpMatchesReference(dp, ref, classes, int64_t{1} << 40, &workspace,
                             &result);
    EXPECT_EQ(workspace.band_lower, 0);
    EXPECT_EQ(SkipsEliminated(classes, workspace), 0);
    ExpectDpMatchesReferenceAtBreakpoints(dp, ref, classes, &workspace,
                                          &result, 1.0, max_cells);
  }
}

// Step-3 repair knapsacks, all mandatory: L = 0, so nothing is eliminated
// and every band is [0, cells].
TEST(OrchestratorEquivalence, ReductionLeavesMandatoryFixShapesAlone) {
  Rng rng(113);
  const DpMckpSolver dp;
  const reference::RefDpSolver ref;
  MckpWorkspace workspace;
  MckpResult result;
  const auto ladder = FineLadder(5);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<MckpClass> classes;
    int64_t total = 0;
    const int n_streams = static_cast<int>(rng.UniformInt(1, 6));
    for (int k = 0; k < n_streams; ++k) {
      const StreamOption& current = ladder[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(ladder.size()) - 1))];
      MckpClass cls;
      cls.mandatory = true;
      for (const auto& option : ladder) {
        if (!(option.resolution == current.resolution)) continue;
        if (option.bitrate > current.bitrate) continue;
        cls.items.push_back(MckpItem{option.bitrate.bps(), option.qoe});
      }
      total += current.bitrate.bps();
      classes.push_back(cls);
    }
    const int64_t capacity = rng.UniformInt(0, total + 200'000);
    SCOPED_TRACE(testing::Message()
                 << "trial " << trial << ", capacity " << capacity);
    ExpectDpMatchesReference(dp, ref, classes, capacity, &workspace, &result);
    EXPECT_EQ(workspace.band_lower, 0);
    for (size_t k = 0; k < classes.size(); ++k) {
      EXPECT_EQ(workspace.min_vq[k], 0);
      EXPECT_EQ(workspace.lo[k], 0);
    }
  }
}

// The class pass relaxes each item's cells in blocks of 16 (RelaxItem's
// kBlock), then the rest one by one. Grids of 1 to 2 * 16 + 1 cells give
// item passes of every length in that range, so both loops run with every
// remainder. Small integer weights and values make ties common, and a tie
// must keep the first minimum. Each instance is solved on int32_t cells
// and, with its weights and capacity scaled by 2^30, on int64_t cells: the
// scale moves no comparison, so both widths must agree with the reference
// and relax the same cells.
TEST(OrchestratorEquivalence, ClassPassMatchesReferenceAtEveryBlockRemainder) {
  constexpr int64_t kBlock = 16;
  constexpr int64_t kScale = int64_t{1} << 30;
  Rng rng(128);
  MckpWorkspace narrow_ws;
  MckpWorkspace wide_ws;
  MckpResult narrow;
  MckpResult wide;
  int wide_solves = 0;
  for (int64_t cells = 1; cells <= 2 * kBlock + 1; ++cells) {
    const DpMckpSolver dp(cells);
    const reference::RefDpSolver ref(1.0, cells);
    for (int trial = 0; trial < 60; ++trial) {
      SCOPED_TRACE(testing::Message()
                   << cells << " cells, trial " << trial);
      std::vector<MckpClass> classes(
          static_cast<size_t>(rng.UniformInt(1, 4)));
      for (auto& cls : classes) {
        cls.mandatory = rng.Bernoulli(0.15);
        const int n_items = static_cast<int>(rng.UniformInt(1, 6));
        for (int j = 0; j < n_items; ++j) {
          cls.items.push_back(MckpItem{
              rng.UniformInt(0, 6),
              static_cast<double>(rng.UniformInt(0, cells))});
        }
      }
      const int64_t capacity = rng.UniformInt(0, 14);
      narrow_ws.cells_relaxed = 0;
      ExpectDpMatchesReference(dp, ref, classes, capacity, &narrow_ws,
                               &narrow);

      std::vector<MckpClass> scaled = classes;
      for (auto& cls : scaled) {
        for (auto& item : cls.items) item.weight *= kScale;
      }
      if (std::min(capacity * kScale,
                   EligibleWeightSum(scaled, capacity * kScale)) >= kScale) {
        ++wide_solves;
      }
      wide_ws.cells_relaxed = 0;
      ExpectDpMatchesReference(dp, ref, scaled, capacity * kScale, &wide_ws,
                               &wide);
      EXPECT_EQ(wide.feasible, narrow.feasible);
      EXPECT_EQ(wide.choice, narrow.choice);
      EXPECT_EQ(wide.total_value, narrow.total_value);
      EXPECT_EQ(wide.total_weight, narrow.total_weight * kScale);
      EXPECT_EQ(wide_ws.cells_relaxed, narrow_ws.cells_relaxed);
    }
  }
  // Most scaled instances run on int64_t cells (cap_eff >= 2^30).
  EXPECT_GT(wide_solves, 1000);
}

}  // namespace
}  // namespace gso::core
