// Multiple-Choice Knapsack solvers.
//
// Step 1 of the GSO control algorithm reduces each subscriber's downlink to
// a Multiple-Choice Knapsack: one class per subscribed source, one item per
// feasible (resolution, bitrate) option, capacity = B_d. The paper solves
// it with pseudo-polynomial dynamic programming; the exhaustive solver
// reproduces the paper's brute-force baseline (Fig. 6a/6b) and is also used
// to cross-check DP optimality in tests.
#ifndef GSO_CORE_MCKP_H_
#define GSO_CORE_MCKP_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace gso::core {

struct MckpItem {
  int64_t weight = 0;  // bits per second
  double value = 0.0;  // priority-weighted QoE utility
};

struct MckpClass {
  std::vector<MckpItem> items;
  // Mandatory classes must select an item (used by the Step-3 repair
  // knapsack, where every already-published resolution keeps a stream).
  bool mandatory = false;
};

struct MckpResult {
  // choice[k] = selected item index in class k, or -1 for none.
  std::vector<int> choice;
  double total_value = 0.0;
  int64_t total_weight = 0;
  bool feasible = true;  // false iff a mandatory class cannot be satisfied
};

// Grow-only scratch buffers for DpMckpSolver. The controller solves one
// MCKP per subscriber per iteration; owning the tables across solves (one
// workspace per orchestrator) removes every per-solve heap allocation from
// the hot path.
// A workspace may be reused freely across solvers, capacities and problem
// shapes; buffers only ever grow.
struct MckpWorkspace {
  // A (weight, quantized value) pair: a hull vertex, or the step between
  // two, then tagged with its class.
  struct HullStep {
    int64_t weight = 0;
    int64_t value = 0;
    int32_t klass = 0;
  };

  // dp[v]: min weight at quantized value v; `next` double-buffers the class
  // pass. One pair per cell width (see DpMckpSolver); a solve uses one.
  std::vector<int32_t> dp32;
  std::vector<int32_t> next32;
  std::vector<int64_t> dp64;
  std::vector<int64_t> next64;
  std::vector<int16_t> choices;   // per class: item on the best path, row-major
  std::vector<int64_t> vq;        // per item: precomputed quantized value
  std::vector<std::size_t> vq_offset;  // per class: offset of its items in vq
  std::vector<int16_t> order;     // dominance-pruning sort scratch
  std::vector<uint8_t> keep;      // dominance-pruning survivor flags
  std::vector<int64_t> max_vq;    // per class: largest surviving item value
  std::vector<int64_t> min_vq;    // per class: smallest, if need_item; else 0
  std::vector<uint8_t> need_item; // per class: mandatory, or skip eliminated
  std::vector<int64_t> lo;        // per class: lowest cell of its band
  std::vector<int64_t> hi;        // per class: highest cell of its band
  std::vector<HullStep> hull;     // one class's upper convex hull
  std::vector<HullStep> segments; // every class's hull steps, by efficiency
  std::vector<uint8_t> blocked;   // per class: L's greedy passed a step
  std::vector<__int128> reduced_max;  // per class: best reduced value M_k

  // The last DpMckpSolver solve's value band, in quantized cells:
  // band_lower <= best value <= band_upper, and the critical efficiency
  // lambda_p / lambda_q (0 / 1 when every hull step fits; see DpMckpSolver).
  int64_t band_lower = 0;
  int64_t band_upper = 0;
  int64_t lambda_p = 0;
  int64_t lambda_q = 1;

  // DP cells relaxed (one item tried at one value cell) by every
  // DpMckpSolver solve on this workspace; callers reset it.
  int64_t cells_relaxed = 0;
};

class MckpSolver {
 public:
  virtual ~MckpSolver() = default;

  // Solves `classes` under `capacity` into `*result`, reusing its buffers.
  // `workspace` is scratch the solver may keep across calls (DpMckpSolver
  // then makes zero steady-state allocations); solvers that keep no
  // scratch, such as the exhaustive baseline, ignore it.
  virtual void Solve(std::span<const MckpClass> classes, int64_t capacity,
                     MckpWorkspace* workspace, MckpResult* result) const = 0;

  // Convenience form for tests and benches: returns the result by value and
  // uses a throwaway workspace when none is given.
  MckpResult Solve(std::span<const MckpClass> classes, int64_t capacity,
                   MckpWorkspace* workspace = nullptr) const;
};

// Pseudo-polynomial DP over the *value* dimension: dp[v] = minimum weight
// achieving quantized value v (the classic FPTAS formulation). Weights stay
// exact, so a returned solution never exceeds the capacity and knife-edge
// fits are found; value quantization is the only source of sub-optimality
// (loss <= #classes * quantum). The quantum is 1.0, rescaled to
// value_sum / max_cells when the grid would exceed max_cells. Each class
// pass computes only the value band described below, not the whole grid,
// over the options that reduced costs have not ruled out. The grid still
// grows with the number of classes (publishers): measured with
// bench/controller_scaling, a cold mesh_n solve (n subscribers, each with
// n - 1 classes) grows as ~n^1.7 from mesh_8 to mesh_64, ~n^0.7 per
// subscriber (EXPERIMENTS.md).
//
// Before the DP, each class is reduced by dominance pruning: an item is
// dropped when another item of the class weighs no more and achieves at
// least the same quantized value (ties resolved toward the earlier item,
// matching the DP's first-minimum tie-break). Pruned items can never
// appear in the returned solution, so the result — choice vector included —
// is identical to solving the unpruned instance; the DP inner loops just
// run over strictly fewer items. Each class pass is bounded by the highest
// reachable value so far (`reach`), which skips provably unreachable cells.
//
// Value band. Every class is pruned before the first pass; the survivors
// give two bounds on best_v, the quantized value the DP returns:
//   U: the Dyer–Zemel LP bound. Each class's survivors plus the empty
//      choice (0, 0) span an upper convex hull; its steps, sorted by
//      efficiency (value per weight) across classes, are taken greedily
//      until one no longer fits, and that critical step, of efficiency
//      lambda = p / q (0 / 1 when every step fits), is taken fractionally.
//      U = floor(LP). Every partial selection within the capacity is
//      LP-feasible, so no DP cell above U is ever finite.
//   L: the greedy goes on past the critical step: a class whose step did
//      not fit is blocked, and every later step of an unblocked class that
//      still fits is taken whole. The steps taken pick one hull vertex (a
//      surviving item, or none) per class within the capacity; L is the
//      quantized value of that selection G, so best_v >= L. L = 0 when a
//      class is mandatory, since G may skip it, and when L exceeds the grid
//      (rounding in value_sum; see Top below).
// Integer arithmetic throughout: int64_t weights and values, __int128
// cross-products.
//
// Reduced-cost elimination, only when L > 0. Option j of class k (an item,
// or the skip as (0, 0)) has the reduced value r_j = q * vq_j - p * w_j,
// and M_k is the largest over class k's survivors and the skip. Every
// selection S within the capacity has q * value(S) = sum of r over S +
// p * weight(S) <= p * capacity + sum of r over S, so no selection using j
// is worth L or more when p * capacity + sum_{i != k} M_i + r_j < q * L.
// Such an item is dropped, and such a skip makes class k's pass mandatory.
// G passes the test in every class (its own reduced values already reach
// q * L), so a class whose skip was dropped keeps an item. max_vq_k is then
// class k's largest surviving value, and min_vq_k its smallest if the skip
// was dropped, else 0.
//
// The solver then narrows the grid in three ways:
//   Top: cells = min(value_sum / quantum, U). The dropped cells were never
//   finite, so their choice entries were never set.
//   Floor: class k's pass computes only cells >= lo_k, where
//   lo_k = max(0, L - sum over i > k of max_vq_i).
//   Ceiling: and only cells <= hi_k = cells - sum over i > k of min_vq_i.
// Proof that the result is unchanged. Call a path any selection of
// unreduced survivors worth best_v within the capacity whose every prefix
// (classes 0..k) weighs the unreduced DP's minimum for its value; the
// backtracked solution is one. A path keeps every option (it is worth
// best_v >= L), and its prefix after class k, worth best_v minus its values
// in classes k+1.., lies in [lo_k, hi_k]. So by induction on k the reduced
// DP holds the unreduced minimum weight at every path prefix cell: the
// path's own prefix reaches it, and dropping options never lowers a
// minimum. At such a cell, every option that attains the minimum extends to
// another path (its minimum-weight prefix, the option, the rest of this
// path), so it survives with the same candidate weight, while every other
// candidate can only grow. The first minimum, and with it the choice entry,
// is therefore unchanged at every cell the backtrack reads. The final scan
// still stops at best_v: its cell holds the unreduced weight, and no higher
// cell can reach the capacity with fewer options.
// Every read stays in the band. Pass k reads dp[c] (the skip, so only when
// the pass is not mandatory and min_vq_k = 0) and dp[c - vq_j] for each
// survivor j, all in [lo_k - max_vq_k, hi_k - min_vq_k], which lies inside
// [lo_{k-1}, hi_{k-1}]; cells above the previous pass's last row are kept
// unreachable. `reach` is unchanged within the band: G restricted to classes
// 0..k survives and is worth between lo_k and hi_k, so the highest finite
// cell after pass k is >= lo_k, and the scan that finds it (which for a
// mandatory pass looks for a recorded item) stops there. Choice entries
// are reset from min(lo_k, reach + 1), which covers that scan. Cells below
// lo_k hold stale data that no later read touches.
// With L = 0 (a mandatory class, as in every Step-3 repair knapsack) no
// option is dropped, lo_k = 0 and hi_k = cells: the reach-bounded DP.
//
// Cell width: every partial selection weighs at most
// cap_eff = min(capacity, sum over classes of the heaviest eligible item),
// so a cell fits the capacity iff it is <= cap_eff. When cap_eff < 2^30 the
// table uses int32_t cells with 2^30 as "unreachable"; otherwise int64_t
// cells. The width only changes speed, never the result.
//
// Class pass: for each kept item j (ascending) and each cell v >= lo_k
// (ascending),
//   cand = dp[v - vq_j] + w_j;  take = cand <= cap_eff && cand < next[v];
//   next[v] = take ? cand : next[v];  row[v] = take ? j : row[v].
// The pass has no branches (an unreachable base fails the capacity test on
// its own), so it vectorizes; the strict `<` keeps the first minimum, as
// the backtrack expects. On x86-64 with GCC 12 or later the kernel is
// built three times from one source, for x86-64-v4 (256-bit vectors with
// AVX-512 mask registers), AVX2 and the baseline ISA (SSE2), and the
// dynamic loader binds the widest build the CPU supports (KernelIsa()).
// The kernel is integer-only and every build tries each cell's options in
// the same order, so all three return the same choices and cell counts.
// `reach` is updated after the pass, from the highest cell the class row
// recorded a choice for.
class DpMckpSolver : public MckpSolver {
 public:
  explicit DpMckpSolver(int64_t max_cells = 1 << 16) : max_cells_(max_cells) {}

  using MckpSolver::Solve;
  void Solve(std::span<const MckpClass> classes, int64_t capacity,
             MckpWorkspace* workspace, MckpResult* result) const override;

  // The vector ISA level of the class-pass build the loader picked on this
  // CPU: "x86-64-v4", "avx2" or "baseline".
  static const char* KernelIsa();

 private:
  int64_t max_cells_;
};

// Exact exponential-time enumeration: the paper's brute-force baseline.
// Visits every combination of (item or none) per class; complexity
// prod_k (|items_k| + 1).
class ExhaustiveMckpSolver : public MckpSolver {
 public:
  using MckpSolver::Solve;
  void Solve(std::span<const MckpClass> classes, int64_t capacity,
             MckpWorkspace* workspace, MckpResult* result) const override;

  // Combinations visited by the last Solve call (for scaling benches).
  int64_t last_visit_count() const { return visits_; }

 private:
  mutable int64_t visits_ = 0;
};

}  // namespace gso::core

#endif  // GSO_CORE_MCKP_H_
