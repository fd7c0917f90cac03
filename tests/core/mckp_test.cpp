// Unit and property tests for the Multiple-Choice Knapsack solvers.
#include "core/mckp.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace gso::core {
namespace {

MckpClass MakeClass(std::vector<std::pair<int64_t, double>> items,
                    bool mandatory = false) {
  MckpClass cls;
  cls.mandatory = mandatory;
  for (auto [w, v] : items) cls.items.push_back(MckpItem{w, v});
  return cls;
}

// The convenience Solve takes a span; braced instances need a named type.
using Classes = std::vector<MckpClass>;

TEST(Mckp, EmptyInstance) {
  DpMckpSolver dp;
  const auto r = dp.Solve(Classes{}, 1'000'000);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.total_value, 0.0);
  EXPECT_TRUE(r.choice.empty());
}

TEST(Mckp, SingleClassPicksBestFit) {
  DpMckpSolver dp;
  const auto r = dp.Solve(
      Classes{MakeClass({{1'500'000, 1200}, {1'000'000, 750}, {300'000, 300}})},
      1'100'000);
  ASSERT_EQ(r.choice.size(), 1u);
  EXPECT_EQ(r.choice[0], 1);  // the 1 Mbps option
  EXPECT_EQ(r.total_value, 750);
}

TEST(Mckp, SkipsClassWhenNothingFits) {
  DpMckpSolver dp;
  const auto r = dp.Solve(Classes{MakeClass({{2'000'000, 100}})}, 1'000'000);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.choice[0], -1);
  EXPECT_EQ(r.total_value, 0.0);
}

TEST(Mckp, MandatoryClassInfeasibleWhenNothingFits) {
  DpMckpSolver dp;
  const auto r =
      dp.Solve(Classes{MakeClass({{2'000'000, 100}}, /*mandatory=*/true)},
               1'000'000);
  EXPECT_FALSE(r.feasible);
}

TEST(Mckp, MandatoryClassForcedChoice) {
  DpMckpSolver dp;
  // Mandatory class must pick even though skipping would leave room for
  // the optional class's bigger value.
  const auto r = dp.Solve(
      Classes{MakeClass({{900'000, 10}}, /*mandatory=*/true),
              MakeClass({{800'000, 500}, {100'000, 50}})},
      1'000'000);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.choice[0], 0);
  EXPECT_EQ(r.choice[1], 1);  // only the 100k item still fits
  EXPECT_EQ(r.total_value, 60);
}

TEST(Mckp, ZeroCapacity) {
  DpMckpSolver dp;
  const auto r = dp.Solve(Classes{MakeClass({{100, 10}})}, 0);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.choice[0], -1);
  const auto r2 =
      dp.Solve(Classes{MakeClass({{100, 10}}, /*mandatory=*/true)}, 0);
  EXPECT_FALSE(r2.feasible);
}

TEST(Mckp, ExhaustiveMatchesKnownOptimum) {
  ExhaustiveMckpSolver ex;
  const auto r = ex.Solve(
      Classes{MakeClass({{800'000, 700}, {600'000, 530}, {100'000, 100}}),
              MakeClass({{1'500'000, 1200}, {300'000, 300}})},
      1'400'000);
  EXPECT_TRUE(r.feasible);
  // Optimum: 800k(700) + 300k(300) = 1000 at weight 1.1M.
  EXPECT_EQ(r.total_value, 1000);
  EXPECT_EQ(r.total_weight, 1'100'000);
}

TEST(Mckp, DpNeverExceedsCapacity_Property) {
  Rng rng(42);
  DpMckpSolver dp;
  ExhaustiveMckpSolver ex;
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
    const auto r_dp = dp.Solve(classes, capacity);
    const auto r_ex = ex.Solve(classes, capacity);
    ASSERT_TRUE(r_dp.feasible);
    EXPECT_LE(r_dp.total_weight, capacity) << "trial " << trial;
    // DP is optimal up to value quantization; never better than exact.
    EXPECT_LE(r_dp.total_value, r_ex.total_value + 1e-9) << "trial " << trial;
    // Value-grid DP loses at most one quantum per class.
    EXPECT_GE(r_dp.total_value,
              r_ex.total_value - static_cast<double>(n_classes) * 1.0 - 1e-9)
        << "trial " << trial;
  }
}

TEST(Mckp, DpExactWhenValuesAlignToGrid) {
  // When all values are integral (multiples of the 1.0 value quantum) the
  // DP is exact.
  Rng rng(7);
  DpMckpSolver dp;
  ExhaustiveMckpSolver ex;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<MckpClass> classes;
    const int n_classes = static_cast<int>(rng.UniformInt(1, 4));
    for (int k = 0; k < n_classes; ++k) {
      MckpClass cls;
      const int n_items = static_cast<int>(rng.UniformInt(1, 5));
      for (int j = 0; j < n_items; ++j) {
        cls.items.push_back(
            MckpItem{rng.UniformInt(50'000, 2'000'000),
                     static_cast<double>(rng.UniformInt(10, 1000))});
      }
      classes.push_back(cls);
    }
    const int64_t capacity = rng.UniformInt(100'000, 4'000'000);
    const auto r_dp = dp.Solve(classes, capacity);
    const auto r_ex = ex.Solve(classes, capacity);
    EXPECT_NEAR(r_dp.total_value, r_ex.total_value, 1e-9) << "trial " << trial;
  }
}

TEST(Mckp, DpFindsKnifeEdgeFit) {
  // Exact-capacity fits must be found (weights are never quantized).
  DpMckpSolver dp;
  const auto r = dp.Solve(
      Classes{MakeClass({{400'001, 360}}), MakeClass({{299'999, 300}})},
      700'000);
  EXPECT_EQ(r.total_value, 660);
  EXPECT_EQ(r.total_weight, 700'000);
}

TEST(Mckp, QuantizationBoundaryValuesStayConsistent) {
  // Adversarial grid alignment: values sitting a hair's breadth on either
  // side of a cell boundary. The solver quantizes each value exactly once
  // and reuses that table in the backtrack, so forward pass and backtrack
  // can never disagree about an item's cell (which would trip the
  // backtrack's v >= 0 check or corrupt the choice vector).
  DpMckpSolver dp;
  ExhaustiveMckpSolver ex;
  MckpWorkspace workspace;
  const double eps = 1e-12;
  std::vector<MckpClass> classes;
  classes.push_back(MakeClass({{100, 3.0 - eps}, {90, 2.0 + eps}, {80, 2.0}}));
  classes.push_back(MakeClass({{100, 1.0 - eps}, {50, 1.0 + eps}}));
  classes.push_back(
      MakeClass({{70, 5.0}, {60, 5.0 - eps}}, /*mandatory=*/true));
  for (int64_t capacity : {0, 50, 99, 149, 180, 230, 231, 270, 1000}) {
    const auto r = dp.Solve(classes, capacity, &workspace);
    const auto r2 = dp.Solve(classes, capacity);  // workspace-free overload
    EXPECT_EQ(r.choice, r2.choice) << "capacity " << capacity;
    EXPECT_EQ(r.total_value, r2.total_value) << "capacity " << capacity;
    if (!r.feasible) continue;
    EXPECT_LE(r.total_weight, capacity) << "capacity " << capacity;
    const auto exact = ex.Solve(classes, capacity);
    EXPECT_LE(r.total_value, exact.total_value + 1e-9)
        << "capacity " << capacity;
    EXPECT_GE(r.total_value, exact.total_value - 3.0 - 1e-9)
        << "capacity " << capacity;
  }
}

TEST(Mckp, QuantumRescaleWithBoundaryValues) {
  // Force the quantum rescale path (value_sum / quantum > max_cells) with
  // values crafted to land exactly on the rescaled cell boundaries.
  DpMckpSolver dp(/*max_cells=*/8);
  MckpWorkspace workspace;
  std::vector<MckpClass> classes;
  classes.push_back(MakeClass({{100, 64.0}, {50, 32.0}, {25, 16.0}}));
  classes.push_back(MakeClass({{100, 64.0}, {10, 8.0}}));
  for (int64_t capacity : {0, 10, 35, 110, 125, 200, 1000}) {
    const auto r = dp.Solve(classes, capacity, &workspace);
    EXPECT_TRUE(r.feasible) << "capacity " << capacity;
    EXPECT_LE(r.total_weight, capacity) << "capacity " << capacity;
    // Identical across workspace reuse and fresh scratch.
    const auto fresh = dp.Solve(classes, capacity);
    EXPECT_EQ(r.choice, fresh.choice) << "capacity " << capacity;
    EXPECT_EQ(r.total_value, fresh.total_value) << "capacity " << capacity;
  }
}

TEST(Mckp, WorkspaceShrinksAndGrowsAcrossSolves) {
  // A big instance followed by a tiny one followed by a big one: stale
  // cells and choice rows from earlier solves must never leak through.
  Rng rng(11);
  DpMckpSolver dp;
  MckpWorkspace workspace;
  for (int round = 0; round < 30; ++round) {
    const int n_classes = (round % 3 == 1) ? 1 : 8;
    std::vector<MckpClass> classes;
    for (int k = 0; k < n_classes; ++k) {
      MckpClass cls;
      cls.mandatory = (round % 5 == 0 && k == 0);
      const int n_items = static_cast<int>(rng.UniformInt(1, 6));
      for (int j = 0; j < n_items; ++j) {
        cls.items.push_back(MckpItem{rng.UniformInt(10'000, 1'500'000),
                                     rng.Uniform(5, 900)});
      }
      classes.push_back(cls);
    }
    const int64_t capacity = rng.UniformInt(50'000, 4'000'000);
    const auto reused = dp.Solve(classes, capacity, &workspace);
    const auto fresh = dp.Solve(classes, capacity);
    ASSERT_EQ(reused.feasible, fresh.feasible) << "round " << round;
    ASSERT_EQ(reused.choice, fresh.choice) << "round " << round;
    EXPECT_EQ(reused.total_value, fresh.total_value) << "round " << round;
    EXPECT_EQ(reused.total_weight, fresh.total_weight) << "round " << round;
  }
}

// The band DpMckpSolver confines its passes to. On quantized instances
// (integral values, quantum 1, so the DP is exact) the greedy floor L and
// the LP bound U bracket the optimum, and L is the value of a feasible
// selection, or 0 when a class is mandatory.
TEST(Mckp, ValueBandBracketsTheOptimum_Property) {
  Rng rng(5);
  DpMckpSolver dp;
  ExhaustiveMckpSolver ex;
  MckpWorkspace workspace;
  MckpResult result;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<MckpClass> classes;
    bool any_mandatory = false;
    const int n_classes = static_cast<int>(rng.UniformInt(1, 4));
    for (int k = 0; k < n_classes; ++k) {
      MckpClass cls;
      cls.mandatory = rng.Bernoulli(0.1);
      any_mandatory = any_mandatory || cls.mandatory;
      const int n_items = static_cast<int>(rng.UniformInt(1, 5));
      for (int j = 0; j < n_items; ++j) {
        const int64_t weight =
            rng.Bernoulli(0.1) ? 0 : rng.UniformInt(50'000, 2'000'000);
        cls.items.push_back(MckpItem{
            weight, static_cast<double>(rng.UniformInt(0, 1000))});
      }
      classes.push_back(cls);
    }
    const int64_t capacity = rng.UniformInt(0, 4'000'000);
    dp.Solve(classes, capacity, &workspace, &result);
    const auto exact = ex.Solve(classes, capacity);
    ASSERT_EQ(result.feasible, exact.feasible) << "trial " << trial;
    ASSERT_EQ(result.total_value, exact.total_value) << "trial " << trial;
    if (!exact.feasible) continue;
    const auto best = static_cast<int64_t>(exact.total_value);
    EXPECT_LE(workspace.band_lower, best) << "trial " << trial;
    EXPECT_LE(best, workspace.band_upper) << "trial " << trial;
    if (any_mandatory) {
      EXPECT_EQ(workspace.band_lower, 0) << "trial " << trial;
      continue;
    }
    // Every value a feasible selection reaches.
    std::set<int64_t> reached = {0};
    std::vector<std::pair<int64_t, int64_t>> partial = {{0, 0}};
    for (const auto& cls : classes) {
      std::vector<std::pair<int64_t, int64_t>> grown = partial;
      for (const auto& [weight, value] : partial) {
        for (const auto& item : cls.items) {
          if (weight + item.weight > capacity) continue;
          grown.emplace_back(weight + item.weight,
                             value + static_cast<int64_t>(item.value));
        }
      }
      partial = std::move(grown);
    }
    for (const auto& entry : partial) reached.insert(entry.second);
    EXPECT_TRUE(reached.count(workspace.band_lower))
        << "trial " << trial << ": L = " << workspace.band_lower;
  }
}

// The reduction on a hand-worked instance (values integral, quantum 1).
// Hull steps by efficiency: class 0's (4, 8), class 1's (4, 6) and (2, 2),
// class 2's (3, 2), class 3's (2, 1), class 0's (6, 2). At capacity 12 the
// first three fit (value 16, 2 left); class 2's step is critical, so
// lambda = 2/3 and U = 16 + floor(2 * 2/3) = 17. The greedy goes on past
// it: class 3's step still fits, so L = 17 where Dantzig's greedy stops at
// 16. Reduced values 3v - 2w: class 0 {skip 0, A 16, B 10}, class 1
// {0, C 10, D 12}, class 2 {0, E 0}, class 3 {0, F -1}; M = {16, 12, 0, 0}
// and q * L - p * capacity = 27. An option of class k survives iff its
// reduced value reaches 27 - (28 - M_k): 15, 11, -1, -1. So B, C and the
// skips of classes 0 and 1 go, and F survives with no slack: it lies on the
// only optimum, A + D + F = 17 at weight 12.
TEST(Mckp, ReducedCostEliminationOnAHandWorkedInstance) {
  const Classes classes = {
      MakeClass({{4, 8}, {10, 10}}),  // A, B
      MakeClass({{4, 6}, {6, 8}}),    // C, D
      MakeClass({{3, 2}}),            // E
      MakeClass({{2, 1}}),            // F
  };
  DpMckpSolver dp;
  MckpWorkspace workspace;
  const auto r = dp.Solve(classes, 12, &workspace);
  EXPECT_EQ(r.choice, (std::vector<int>{0, 1, -1, 0}));
  EXPECT_EQ(r.total_value, 17.0);
  EXPECT_EQ(r.total_weight, 12);
  EXPECT_EQ(workspace.lambda_p, 2);
  EXPECT_EQ(workspace.lambda_q, 3);
  EXPECT_EQ(workspace.band_lower, 17);
  EXPECT_EQ(workspace.band_upper, 17);
  // Survivors (keep is per item, classes back to back) and mandatory passes.
  EXPECT_EQ(std::vector<uint8_t>(workspace.keep.begin(),
                                 workspace.keep.begin() + 6),
            (std::vector<uint8_t>{1, 0, 0, 1, 1, 1}));
  EXPECT_EQ(workspace.need_item, (std::vector<uint8_t>{1, 1, 0, 0}));
  EXPECT_EQ(workspace.min_vq, (std::vector<int64_t>{8, 8, 0, 0}));
  EXPECT_EQ(workspace.max_vq, (std::vector<int64_t>{8, 8, 2, 1}));
  // Bands [lo_k, hi_k]: [6, 9], [14, 17], [16, 17], [17, 17]. The passes
  // relax A at 8, D at 14..16, E at 16..17 and F at 17.
  EXPECT_EQ(workspace.lo, (std::vector<int64_t>{6, 14, 16, 17}));
  EXPECT_EQ(workspace.hi, (std::vector<int64_t>{9, 17, 17, 17}));
  EXPECT_EQ(workspace.cells_relaxed, 7);
}

TEST(Mckp, ExhaustiveCountsVisits) {
  ExhaustiveMckpSolver ex;
  ex.Solve(Classes{MakeClass({{1, 1}, {2, 2}}), MakeClass({{1, 1}})}, 100);
  // (2 items + none) x (1 item + none) = 6 leaves.
  EXPECT_EQ(ex.last_visit_count(), 6);
}

}  // namespace
}  // namespace gso::core
