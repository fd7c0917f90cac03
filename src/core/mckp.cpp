#include "core/mckp.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

// Builds a function once per x86-64 vector ISA level and lets the dynamic
// loader pick, through an ifunc resolver, the widest build the CPU
// supports. The levels and their feature test need GCC 12; other compilers
// and targets build the one baseline body.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    __GNUC__ >= 12
#define GSO_ISA_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#define GSO_ISA_CLONES_ENABLED 1
#else
#define GSO_ISA_CLONES
#define GSO_ISA_CLONES_ENABLED 0
#endif

namespace gso::core {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Value grid step of the Step-1 DP, before any rescale to max_cells_.
constexpr double kValueQuantum = 1.0;

// "Unreachable" cell value per width. Finite cells never exceed cap_eff,
// which stays below it, and kInfCell + cap_eff cannot overflow, so an
// unreachable base always fails the capacity test.
template <typename Cell>
constexpr Cell kInfCell = sizeof(Cell) == sizeof(int32_t)
                              ? Cell{1} << 30
                              : std::numeric_limits<Cell>::max() / 2;

// Dominance pruning. Eligible items sorted by (value desc, weight asc,
// index asc) survive only while strictly lighter than everything that
// sorts before them: the survivors form the staircase of per-value
// minimum weights. A pruned item can never be the DP's recorded
// first-minimum choice at any state on the backtracked optimal path, so
// the solve result is identical to the unpruned instance. Sets keep[j] for
// the survivors; returns the largest quantized value among them.
int64_t PruneClass(const MckpClass& cls, const int64_t* vq, int64_t capacity,
                   uint8_t* keep, std::vector<int16_t>* order) {
  order->clear();
  for (size_t j = 0; j < cls.items.size(); ++j) {
    const auto& item = cls.items[j];
    keep[j] = 0;
    if (item.weight < 0 || item.weight > capacity || item.value < 0) {
      continue;  // not eligible
    }
    order->push_back(static_cast<int16_t>(j));
  }
  std::sort(order->begin(), order->end(), [&](int16_t a, int16_t b) {
    if (vq[a] != vq[b]) return vq[a] > vq[b];
    const int64_t wa = cls.items[static_cast<size_t>(a)].weight;
    const int64_t wb = cls.items[static_cast<size_t>(b)].weight;
    if (wa != wb) return wa < wb;
    return a < b;
  });
  int64_t min_weight = std::numeric_limits<int64_t>::max();
  int64_t max_vq = 0;
  for (const int16_t j : *order) {
    const int64_t w = cls.items[static_cast<size_t>(j)].weight;
    if (w < min_weight) {
      keep[j] = 1;
      min_weight = w;
      max_vq = std::max(max_vq, vq[j]);
    }
  }
  return max_vq;
}

using HullStep = MckpWorkspace::HullStep;

// Builds the upper convex hull of one pruned class over its survivors and
// the empty choice (0, 0), and appends the hull's steps, each of positive
// weight and value and tagged with class index `k`, to `segments` in hull
// order (strictly decreasing efficiency: collinear vertices are dropped).
// `order` is PruneClass's sort of the class. Returns the hull's value at
// weight 0: a weight-0 survivor's value, else 0.
int64_t AppendHullSteps(const MckpClass& cls, int32_t k, const int64_t* vq,
                        const uint8_t* keep, const std::vector<int16_t>& order,
                        std::vector<HullStep>* hull,
                        std::vector<HullStep>* segments) {
  hull->assign(1, HullStep{0, 0});
  // Survivors by ascending value are also by strictly ascending weight.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const auto j = static_cast<size_t>(*it);
    if (!keep[j]) continue;
    const HullStep p{cls.items[j].weight, vq[j]};
    if (p.weight == 0) {
      hull->front().value = p.value;  // the lightest survivor, so the first
      continue;
    }
    if (p.value <= hull->back().value) continue;
    // Drop the last vertex unless the slope into it beats the slope out.
    while (hull->size() >= 2) {
      const HullStep& a = (*hull)[hull->size() - 2];
      const HullStep& b = hull->back();
      if (static_cast<__int128>(b.value - a.value) * (p.weight - b.weight) >
          static_cast<__int128>(p.value - b.value) * (b.weight - a.weight)) {
        break;
      }
      hull->pop_back();
    }
    hull->push_back(p);
  }
  for (size_t i = 1; i < hull->size(); ++i) {
    segments->push_back(HullStep{(*hull)[i].weight - (*hull)[i - 1].weight,
                                 (*hull)[i].value - (*hull)[i - 1].value, k});
  }
  return hull->front().value;
}

// Prunes every class (ws->keep, ws->max_vq) and computes the value band
// ws->band_lower (L) and ws->band_upper (U) and the critical efficiency
// lambda = ws->lambda_p / ws->lambda_q described at DpMckpSolver.
void PruneAndBound(std::span<const MckpClass> classes, int64_t capacity,
                   MckpWorkspace* ws) {
  ws->max_vq.resize(classes.size());
  ws->min_vq.assign(classes.size(), 0);
  ws->need_item.resize(classes.size());
  ws->segments.clear();
  int64_t taken = 0;  // the hulls' values at weight 0, then whole steps
  bool any_mandatory = false;
  for (size_t k = 0; k < classes.size(); ++k) {
    const auto& cls = classes[k];
    GSO_CHECK(cls.items.size() <
              static_cast<size_t>(std::numeric_limits<int16_t>::max()));
    const int64_t* vq = ws->vq.data() + ws->vq_offset[k];
    uint8_t* keep = ws->keep.data() + ws->vq_offset[k];
    ws->max_vq[k] = PruneClass(cls, vq, capacity, keep, &ws->order);
    taken += AppendHullSteps(cls, static_cast<int32_t>(k), vq, keep,
                             ws->order, &ws->hull, &ws->segments);
    ws->need_item[k] = cls.mandatory;
    any_mandatory = any_mandatory || cls.mandatory;
  }
  std::sort(ws->segments.begin(), ws->segments.end(),
            [](const HullStep& a, const HullStep& b) {
              return static_cast<__int128>(a.value) * b.weight >
                     static_cast<__int128>(b.value) * a.weight;
            });
  // Dantzig's greedy: whole steps while they fit. The first that does not
  // is critical: U takes a fraction of it, and its efficiency is lambda.
  // L's greedy goes on past it: a class whose step did not fit is blocked,
  // and every later step of an unblocked class that still fits is taken,
  // so L's selection is still one hull vertex per class within capacity.
  // Steps exist only when capacity >= 0.
  ws->blocked.assign(classes.size(), 0);
  ws->lambda_p = 0;
  ws->lambda_q = 1;
  int64_t upper = -1;  // U, once the critical step is met
  int64_t rem = capacity;
  for (const HullStep& step : ws->segments) {
    uint8_t& blocked = ws->blocked[static_cast<size_t>(step.klass)];
    if (blocked) continue;
    if (step.weight > rem) {
      if (upper < 0) {
        upper = taken + static_cast<int64_t>(static_cast<__int128>(step.value) *
                                             rem / step.weight);
        ws->lambda_p = step.value;
        ws->lambda_q = step.weight;
      }
      blocked = 1;
      continue;
    }
    rem -= step.weight;
    taken += step.value;
  }
  ws->band_lower = any_mandatory ? 0 : taken;
  ws->band_upper = upper < 0 ? taken : upper;
}

// Reduced-cost elimination (see DpMckpSolver), for L > 0: clears keep[j]
// for every item that no selection worth >= L within the capacity can
// use, sets need_item[k] when no such selection skips class k, and
// recomputes max_vq (and min_vq, where need_item) over the survivors.
void EliminateByReducedCost(std::span<const MckpClass> classes,
                            int64_t capacity, MckpWorkspace* ws) {
  const __int128 p = ws->lambda_p;
  const __int128 q = ws->lambda_q;
  const auto reduced = [&](const MckpItem& item, int64_t vq) {
    return q * vq - p * item.weight;
  };
  // M_k: the best reduced value of class k's options, skip (0) included.
  ws->reduced_max.resize(classes.size());
  __int128 reduced_sum = 0;
  for (size_t k = 0; k < classes.size(); ++k) {
    const int64_t* vq = ws->vq.data() + ws->vq_offset[k];
    const uint8_t* keep = ws->keep.data() + ws->vq_offset[k];
    __int128 best = 0;
    for (size_t j = 0; j < classes[k].items.size(); ++j) {
      if (keep[j]) best = std::max(best, reduced(classes[k].items[j], vq[j]));
    }
    ws->reduced_max[k] = best;
    reduced_sum += best;
  }
  // An option of class k with reduced value r survives iff
  // p * capacity + (reduced_sum - M_k) + r >= q * L.
  const __int128 bound = q * ws->band_lower - p * capacity;
  for (size_t k = 0; k < classes.size(); ++k) {
    const int64_t* vq = ws->vq.data() + ws->vq_offset[k];
    uint8_t* keep = ws->keep.data() + ws->vq_offset[k];
    const __int128 need = bound - (reduced_sum - ws->reduced_max[k]);
    int64_t max_vq = 0;
    int64_t min_vq = std::numeric_limits<int64_t>::max();
    for (size_t j = 0; j < classes[k].items.size(); ++j) {
      if (!keep[j]) continue;
      if (reduced(classes[k].items[j], vq[j]) < need) {
        keep[j] = 0;
        continue;
      }
      max_vq = std::max(max_vq, vq[j]);
      min_vq = std::min(min_vq, vq[j]);
    }
    ws->max_vq[k] = max_vq;
    if (need > 0) {  // skip (reduced value 0) is eliminated
      // L's own selection survives, so the class keeps an item.
      GSO_CHECK_LT(min_vq, std::numeric_limits<int64_t>::max());
      ws->need_item[k] = 1;
      ws->min_vq[k] = min_vq;
    }
  }
}

// Relaxes item `item` (weight `weight`) over n cells: dst[i] and row[i]
// are the target cell and its choice entry, src[i] the cell one item-value
// below. Branchless, so the loop vectorizes; fixed-size blocks give GCC a
// constant trip count to vectorize at -O2 as well as -O3. GSO_ISA_CLONES
// builds it once per vector ISA level (see DpMckpSolver): integer-only, so
// every build computes the same cells.
template <typename Cell>
GSO_ISA_CLONES void RelaxItem(const Cell* __restrict src,
                              Cell* __restrict dst, int16_t* __restrict row,
                              int64_t n, Cell weight, Cell cap, int16_t item) {
  constexpr int64_t kBlock = 16;
  int64_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    for (int64_t l = 0; l < kBlock; ++l) {
      const Cell cand = src[i + l] + weight;
      const Cell cur = dst[i + l];
      const bool take = (cand <= cap) & (cand < cur);
      dst[i + l] = take ? cand : cur;
      row[i + l] = take ? item : row[i + l];
    }
  }
  // The same body for the last n % kBlock cells. (A shared lambda would
  // drop the __restrict guarantees once inlined, and with them the
  // vectorization at -O2.)
  for (; i < n; ++i) {
    const Cell cand = src[i] + weight;
    const Cell cur = dst[i];
    const bool take = (cand <= cap) & (cand < cur);
    dst[i] = take ? cand : cur;
    row[i] = take ? item : row[i];
  }
}

// Runs every class pass on `Cell`-wide tables `dp`/`next` (`width` cells,
// also the row stride in ws->choices) over the options that
// PruneAndBound and EliminateByReducedCost kept, class k within its band
// [ws->lo[k], ws->hi[k]]. `cap` is cap_eff. Returns the best quantized
// value reachable within it, or -1 when infeasible.
template <typename Cell>
int64_t RunPasses(std::span<const MckpClass> classes, Cell cap, size_t width,
                  std::vector<Cell>& dp, std::vector<Cell>& next,
                  MckpWorkspace* ws) {
  constexpr Cell kInf = kInfCell<Cell>;
  if (dp.size() < width) dp.resize(width);
  if (next.size() < width) next.resize(width);
  std::fill(dp.begin(), dp.begin() + static_cast<ptrdiff_t>(width), kInf);
  std::fill(next.begin(), next.begin() + static_cast<ptrdiff_t>(width), kInf);
  dp[0] = 0;

  // reach: highest value cell with a finite dp entry (-1 while none).
  // wm_*: high-water marks — every cell above them is kInf, so stale
  // buffer contents beyond the current pass are never observed.
  int64_t reach = 0;
  int64_t wm_dp = 0;
  int64_t wm_next = -1;

  for (size_t k = 0; k < classes.size(); ++k) {
    const auto& cls = classes[k];
    const int64_t* vq = ws->vq.data() + ws->vq_offset[k];
    const uint8_t* keep = ws->keep.data() + ws->vq_offset[k];
    const int64_t lo = ws->lo[k];
    const bool need_item = ws->need_item[k];

    // This pass can only populate cells up to reach + max_vq.
    const int64_t row_end = std::min(ws->hi[k], reach + ws->max_vq[k]);
    GSO_CHECK_LE(lo, row_end);
    // Start from the skip branch (or unreachable when the class is
    // mandatory or its skip was eliminated: every state must then include
    // an item of this class).
    if (need_item) {
      std::fill(next.begin() + static_cast<ptrdiff_t>(lo),
                next.begin() + static_cast<ptrdiff_t>(
                                   std::max(row_end, wm_next) + 1),
                kInf);
    } else {
      std::copy(dp.begin() + static_cast<ptrdiff_t>(lo),
                dp.begin() + static_cast<ptrdiff_t>(row_end + 1),
                next.begin() + static_cast<ptrdiff_t>(lo));
      if (wm_next > row_end) {
        std::fill(next.begin() + static_cast<ptrdiff_t>(row_end + 1),
                  next.begin() + static_cast<ptrdiff_t>(wm_next + 1), kInf);
      }
    }
    wm_next = row_end;
    int16_t* row = ws->choices.data() + k * width;
    std::fill(row + std::min(lo, reach + 1), row + row_end + 1,
              static_cast<int16_t>(-1));

    for (size_t j = 0; j < cls.items.size(); ++j) {
      const int64_t first = std::max(vq[j], lo);
      if (!keep[j] || first > row_end) continue;
      ws->cells_relaxed += row_end - first + 1;
      RelaxItem(dp.data() + (first - vq[j]), next.data() + first, row + first,
                row_end - first + 1, static_cast<Cell>(cls.items[j].weight),
                cap, static_cast<int16_t>(j));
    }
    // The highest cell the pass improved, if above the skip branch's reach.
    int64_t reach_new = need_item ? -1 : reach;
    for (int64_t v = row_end; v > reach_new; --v) {
      if (row[v] >= 0) {
        reach_new = v;
        break;
      }
    }
    dp.swap(next);
    std::swap(wm_dp, wm_next);
    reach = reach_new;
    // A mandatory class that admits no feasible item leaves every state
    // unreachable, and so does every later pass. (A class whose skip was
    // eliminated always keeps L's own choice; see DpMckpSolver.)
    if (reach < 0) return -1;
  }

  // Best achievable quantized value within capacity.
  for (int64_t v = reach; v >= 0; --v) {
    if (dp[static_cast<size_t>(v)] <= cap) return v;
  }
  return -1;
}

}  // namespace

const char* DpMckpSolver::KernelIsa() {
#if GSO_ISA_CLONES_ENABLED
  // The resolver's own tests, in its order.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("x86-64-v4")) return "x86-64-v4";
  if (__builtin_cpu_supports("avx2")) return "avx2";
#endif
  return "baseline";
}

MckpResult MckpSolver::Solve(std::span<const MckpClass> classes,
                             int64_t capacity,
                             MckpWorkspace* workspace) const {
  MckpResult result;
  MckpWorkspace scratch;
  Solve(classes, capacity, workspace != nullptr ? workspace : &scratch,
        &result);
  return result;
}

void DpMckpSolver::Solve(std::span<const MckpClass> classes, int64_t capacity,
                         MckpWorkspace* ws, MckpResult* result_ptr) const {
  MckpResult& result = *result_ptr;
  result.choice.assign(classes.size(), -1);  // reuses capacity when warm
  result.total_value = 0.0;
  result.total_weight = 0;
  result.feasible = true;
  if (classes.empty()) return;

  // Value grid: each item's value is floored to multiples of `quantum`.
  // cap_eff bounds the weight of every partial selection: the capacity, or
  // the sum of each class's heaviest eligible item when that is smaller.
  double value_sum = 0.0;
  size_t total_items = 0;
  int64_t weight_sum = 0;  // saturates at capacity
  for (const auto& cls : classes) {
    double best = 0.0;
    int64_t heaviest = 0;
    for (const auto& item : cls.items) {
      best = std::max(best, item.value);
      if (item.weight >= 0 && item.weight <= capacity && item.value >= 0) {
        heaviest = std::max(heaviest, item.weight);
      }
    }
    value_sum += best;
    total_items += cls.items.size();
    weight_sum = weight_sum > capacity - heaviest ? capacity
                                                  : weight_sum + heaviest;
  }
  const int64_t cap_eff = capacity < 0 ? -1 : weight_sum;
  double quantum = kValueQuantum;
  if (value_sum / quantum > static_cast<double>(max_cells_)) {
    quantum = value_sum / static_cast<double>(max_cells_);
  }

  // Quantize every item value exactly once. The bound, the forward pass and
  // the backtrack all read this table, so an item can never shift grid
  // cells between the phases.
  if (ws->vq.size() < total_items) ws->vq.resize(total_items);
  ws->vq_offset.assign(classes.size() + 1, 0);
  if (ws->keep.size() < total_items) ws->keep.resize(total_items);
  {
    size_t offset = 0;
    for (size_t k = 0; k < classes.size(); ++k) {
      ws->vq_offset[k] = offset;
      for (const auto& item : classes[k].items) {
        ws->vq[offset++] = static_cast<int64_t>(item.value / quantum);
      }
    }
    ws->vq_offset[classes.size()] = offset;
  }

  // The value band: no cell above U is ever finite, and class k's pass
  // covers [lo_k, hi_k]. With a floor L > 0, reduced costs first drop the
  // options no selection worth >= L can use.
  PruneAndBound(classes, capacity, ws);
  const int64_t cells = std::max<int64_t>(
      1, std::min(static_cast<int64_t>(value_sum / quantum), ws->band_upper));
  // Rounding in value_sum can leave L's selection above the grid; the DP
  // then cannot represent it, so drop the floor.
  if (ws->band_lower > cells) ws->band_lower = 0;
  if (ws->band_lower > 0) EliminateByReducedCost(classes, capacity, ws);
  ws->lo.resize(classes.size());
  ws->hi.resize(classes.size());
  int64_t suffix_max = 0;  // sum of max_vq over the classes after k
  int64_t suffix_min = 0;  // sum of min_vq over the classes after k
  for (size_t k = classes.size(); k-- > 0;) {
    ws->lo[k] = std::max<int64_t>(0, ws->band_lower - suffix_max);
    ws->hi[k] = cells - suffix_min;
    suffix_max += ws->max_vq[k];
    suffix_min += ws->min_vq[k];
  }
  const size_t width = static_cast<size_t>(cells) + 1;
  if (ws->choices.size() < classes.size() * width) {
    ws->choices.resize(classes.size() * width);
  }

  int64_t best_v;
  if (cap_eff < kInfCell<int32_t>) {
    best_v = RunPasses<int32_t>(classes, static_cast<int32_t>(cap_eff), width,
                                ws->dp32, ws->next32, ws);
  } else {
    GSO_CHECK_LT(cap_eff, kInfCell<int64_t>);
    best_v = RunPasses<int64_t>(classes, cap_eff, width, ws->dp64, ws->next64,
                                ws);
  }
  if (best_v < 0) {
    result.feasible = false;
    return;
  }

  // Backtrack through the per-class choice tables.
  int64_t v = best_v;
  for (size_t k = classes.size(); k-- > 0;) {
    const int16_t j = ws->choices[k * width + static_cast<size_t>(v)];
    result.choice[k] = j;
    if (j >= 0) {
      const auto& item = classes[k].items[static_cast<size_t>(j)];
      result.total_value += item.value;
      result.total_weight += item.weight;
      v -= ws->vq[ws->vq_offset[k] + static_cast<size_t>(j)];
      GSO_CHECK_GE(v, 0);
    }
  }
}

void ExhaustiveMckpSolver::Solve(std::span<const MckpClass> classes,
                                 int64_t capacity, MckpWorkspace* /*workspace*/,
                                 MckpResult* result) const {
  visits_ = 0;
  MckpResult best;
  best.choice.assign(classes.size(), -1);
  best.total_value = kNegInf;

  std::vector<int> current(classes.size(), -1);

  // Depth-first over classes; `weight`/`value` accumulate the partial pick.
  auto recurse = [&](auto&& self, size_t k, int64_t weight,
                     double value) -> void {
    if (k == classes.size()) {
      ++visits_;
      if (value > best.total_value) {
        best.total_value = value;
        best.total_weight = weight;
        best.choice = current;
      }
      return;
    }
    const auto& cls = classes[k];
    if (!cls.mandatory) {
      current[k] = -1;
      self(self, k + 1, weight, value);
    }
    for (size_t j = 0; j < cls.items.size(); ++j) {
      const auto& item = cls.items[j];
      if (weight + item.weight > capacity) continue;
      current[k] = static_cast<int>(j);
      self(self, k + 1, weight + item.weight, value + item.value);
    }
    current[k] = -1;
  };
  recurse(recurse, 0, 0, 0.0);

  if (best.total_value == kNegInf) {
    best.total_value = 0.0;
    best.feasible = false;
  }
  *result = std::move(best);
}

}  // namespace gso::core
