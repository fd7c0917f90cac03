// controller_replay: drives core::Orchestrator::Solve directly, with no
// simulator and no packets. Cold solves of mesh_16 and mesh_32 (Step 1 is
// nearly all of their cost) interleave with a seeded stream of warm deltas
// (report, join, leave) on webinar_10x200, which exercise compile, diff,
// the warm caches and Steps 2/3, plus a fixed schedule of uplink drops
// that make a warm solve's Step 3 reduce. Default OrchestratorOptions, as
// every caller in src/ uses, so Step 1 runs serially.
#include <algorithm>
#include <string>
#include <vector>

#include "bench.h"
#include "common/alloc_tracker.h"
#include "common/rng.h"
#include "core/mckp.h"
#include "core/orchestrator.h"
#include "core/types.h"

namespace gso::perfbench {
namespace {

using namespace gso::core;

// The stream repeats rounds of three segments, each one cold solve then
// kWarmPerCold warm webinar deltas; the cold solves are mesh_16, mesh_32,
// mesh_16. The workload's step is one warm delta (a running controller's
// steady-state event); its solve metrics are the cold solves. With two
// mesh_16 solves to one mesh_32 the cold p50 falls inside the mesh_16 mode
// and the cold p90 inside the mesh_32 mode, never on the boundary between
// them. 30 warm deltas per round give the 1000 warm samples that back
// warm_solve_p99_ms in about as many rounds as the 100 cold samples that
// back cold_solve_p90_ms.
constexpr int kWarmPerCold = 10;
constexpr int kColdPerRound = 3;
constexpr int kVariants = 4;       // budget draws per mesh shape
constexpr int kCheckedRounds = 6;  // deterministic span: solve_qoe, counts
constexpr int kMaxJoined = 8;
constexpr uint32_t kJoinerBase = 1000000;
// Warm solves whose bit-identity to a cold solve is checked, per run. Each
// check costs one cold webinar solve, so the sample is small and seeded.
constexpr int kIdentityChecks = 3;
// Every kUplinkEvery-th round, after the first segment, one webinar
// publisher's uplink drops below the floor of its ladder's two lower
// resolutions (Step 3 must reduce, so the warm solve iterates) and the
// next delta restores it. These two deltas are timed as their own classes:
// a reducing warm solve costs more than a cold mesh_32 solve, so folding it
// into the warm stream would make the warm percentiles depend on where the
// drops fall. The rounds are fixed (rounds 1 and 5 of the checked span
// carry one pair each); the seed picks only the publisher.
constexpr int kUplinkEvery = 4;
constexpr int64_t kDroppedUplinkKbps = 300;

// `publishers` publish a 15-level camera ladder; `subscribers` watch every
// publisher other than themselves at up to 720p. Budgets are drawn as in
// bench/controller_scaling. With `roomy_uplinks` every publisher can send
// its whole ladder, so the seeded warm deltas never make Step 3 reduce;
// reductions come only from the fixed uplink-drop schedule above.
OrchestrationProblem MakeProblem(Rng& rng, int publishers, int subscribers,
                                 bool roomy_uplinks) {
  OrchestrationProblem problem;
  for (int i = 1; i <= std::max(publishers, subscribers); ++i) {
    const int64_t uplink_floor = roomy_uplinks && i <= publishers ? 4000 : 600;
    problem.budgets.push_back(
        {ClientId(static_cast<uint32_t>(i)),
         DataRate::KilobitsPerSec(rng.UniformInt(uplink_floor, 6000)),
         DataRate::KilobitsPerSec(rng.UniformInt(800, 8000))});
  }
  const std::vector<StreamOption> ladder = FineLadder(5);
  for (int p = 1; p <= publishers; ++p) {
    problem.capabilities.push_back(
        {{ClientId(static_cast<uint32_t>(p)), SourceKind::kCamera}, ladder});
  }
  for (int s = 1; s <= subscribers; ++s) {
    for (int p = 1; p <= publishers; ++p) {
      if (p == s) continue;
      problem.subscriptions.push_back(
          {ClientId(static_cast<uint32_t>(s)),
           {ClientId(static_cast<uint32_t>(p)), SourceKind::kCamera},
           kResolution720p, 1.0, 0});
    }
  }
  return problem;
}

// The seeded warm-delta stream on the webinar: a client's reported
// downlink moves, a subscriber-only client joins, or a joiner leaves.
class DeltaStream {
 public:
  DeltaStream(uint64_t seed, OrchestrationProblem* problem)
      : rng_(seed), problem_(problem) {}

  void Next() {
    const double u = rng_.NextDouble();
    if (u < 0.2 && static_cast<int>(joined_.size()) < kMaxJoined) {
      Join();
    } else if (u < 0.4 && !joined_.empty()) {
      Leave();
    } else {
      Report();
    }
  }

 private:
  void Report() {
    ClientBudget& budget = problem_->budgets[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(problem_->budgets.size()) - 1))];
    budget.downlink = DataRate::KilobitsPerSec(rng_.UniformInt(800, 8000));
  }
  void Join() {
    const ClientId joiner(kJoinerBase + next_joiner_++);
    joined_.push_back(joiner);
    problem_->budgets.push_back(
        {joiner, DataRate::KilobitsPerSec(rng_.UniformInt(600, 2000)),
         DataRate::KilobitsPerSec(rng_.UniformInt(800, 8000))});
    for (const SourceCapability& cap : problem_->capabilities) {
      problem_->subscriptions.push_back(
          {joiner, cap.source, kResolution720p, 1.0, 0});
    }
  }
  void Leave() {
    const size_t index = static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(joined_.size()) - 1));
    const ClientId leaver = joined_[index];
    joined_.erase(joined_.begin() + static_cast<ptrdiff_t>(index));
    std::erase_if(problem_->budgets,
                  [&](const ClientBudget& b) { return b.client == leaver; });
    std::erase_if(problem_->subscriptions, [&](const Subscription& s) {
      return s.subscriber == leaver;
    });
  }

  Rng rng_;
  OrchestrationProblem* problem_;
  std::vector<ClientId> joined_;
  uint32_t next_joiner_ = 0;
};

// Bit-level equality of the semantic Solution fields: the warm-solve
// guarantee is that a warm solve equals a cold solve of the same problem.
bool SameSolution(const Solution& a, const Solution& b) {
  if (a.iterations != b.iterations || a.total_qoe != b.total_qoe ||
      a.step1_qoe != b.step1_qoe || a.publish.size() != b.publish.size() ||
      a.per_subscriber.size() != b.per_subscriber.size()) {
    return false;
  }
  for (auto pa = a.publish.begin(), pb = b.publish.begin();
       pa != a.publish.end(); ++pa, ++pb) {
    if (!(pa->first == pb->first) || pa->second.size() != pb->second.size()) {
      return false;
    }
    for (size_t k = 0; k < pa->second.size(); ++k) {
      const PublishedStream& sa = pa->second[k];
      const PublishedStream& sb = pb->second[k];
      if (!(sa.resolution == sb.resolution) || sa.bitrate != sb.bitrate ||
          sa.qoe != sb.qoe || sa.receivers != sb.receivers) {
        return false;
      }
    }
  }
  for (auto sa = a.per_subscriber.begin(), sb = b.per_subscriber.begin();
       sa != a.per_subscriber.end(); ++sa, ++sb) {
    if (sa->first != sb->first || sa->second.size() != sb->second.size()) {
      return false;
    }
    for (auto ia = sa->second.begin(), ib = sb->second.begin();
         ia != sa->second.end(); ++ia, ++ib) {
      if (!(ia->first == ib->first) ||
          !(ia->second.resolution == ib->second.resolution) ||
          ia->second.bitrate != ib->second.bitrate) {
        return false;
      }
    }
  }
  return true;
}

struct Replay {
  std::vector<OrchestrationProblem> mesh16;  // kVariants budget draws each
  std::vector<OrchestrationProblem> mesh32;
  OrchestrationProblem webinar;
  DpMckpSolver cold_solver;
  DpMckpSolver warm_solver;
  Orchestrator cold_orchestrator{&cold_solver};
  Orchestrator warm_orchestrator{&warm_solver};
};

// Per-class samples of the solve trace the orchestrator already records.
struct ClassStats {
  std::vector<double> wall_ms;
  std::vector<double> compile_us;
  std::vector<double> diff_us;
  std::vector<double> step1_us;
  std::vector<double> step23_us;

  void Add(const SolveStats& stats, double wall_ms_value) {
    wall_ms.push_back(wall_ms_value);
    compile_us.push_back(stats.compile_wall_us);
    diff_us.push_back(stats.warm_diff_wall_us);
    step1_us.push_back(stats.step1_wall_us);
    step23_us.push_back(stats.step2_wall_us + stats.step3_wall_us);
  }
};

// Work counts summed over the checked span; they repeat exactly.
struct WorkCounts {
  int64_t knapsacks = 0;
  int64_t cache_hits = 0;
  int64_t dirty = 0;
  int64_t iterations = 0;
};

void Tally(const Solution& solution, double* qoe, WorkCounts* counts) {
  *qoe += solution.total_qoe;
  counts->knapsacks += solution.stats.knapsack_solves;
  counts->cache_hits += solution.stats.step1_cache_hits;
  counts->dirty += solution.stats.dirty_subscribers;
  counts->iterations += solution.stats.iterations;
}

}  // namespace

Result RunControllerReplay(const Options& options) {
  Result result;
  const bool traced = options.traced;

  std::vector<double> setup_s;
  std::unique_ptr<Replay> replay;
  for (int i = 0; i < kSetupRepeats; ++i) {
    replay.reset();
    const auto start = Clock::now();
    replay = std::make_unique<Replay>();
    Rng rng(options.seed * 0x9e3779b97f4a7c15ull + 202);
    for (int v = 0; v < kVariants; ++v) {
      replay->mesh16.push_back(MakeProblem(rng, 16, 16, false));
      replay->mesh32.push_back(MakeProblem(rng, 32, 32, false));
    }
    replay->webinar = MakeProblem(rng, 10, 200, true);
    // The warm orchestrator starts from a solved webinar, as a running
    // controller does; the cold one sizes its workspace once.
    (void)replay->warm_orchestrator.Solve(SolveRequest::Warm(replay->webinar));
    (void)replay->cold_orchestrator.Solve(SolveRequest::Cold(replay->mesh32.back()));
    setup_s.push_back(SecondsSince(start));
  }

  DeltaStream deltas(options.seed * 0x9e3779b97f4a7c15ull + 303,
                     &replay->webinar);
  Rng check_rng(options.seed + 404);
  std::vector<int> identity_checks;  // warm-solve indexes within the span
  for (int i = 0; i < kIdentityChecks; ++i) {
    identity_checks.push_back(static_cast<int>(
        check_rng.UniformInt(0, kCheckedRounds * kColdPerRound * kWarmPerCold - 1)));
  }
  DpMckpSolver reference_solver;
  const Orchestrator reference(&reference_solver);

  ClassStats cold_stats;
  ClassStats warm_stats;
  ClassStats reduce_stats;   // warm solves after an uplink drop
  ClassStats restore_stats;  // warm solves after the uplink is restored
  Rng uplink_rng(options.seed + 505);
  bool reduce_identity_checked = false;
  double solve_qoe = 0.0;
  WorkCounts counts;
  int64_t warm_allocs = 0;
  const size_t min_cold = MinSamplesFor(90);
  const size_t min_warm = MinSamplesFor(99);
  const auto timed_begin = Clock::now();

  int warm_index = 0;
  for (int round = 0;; ++round) {
    const bool checked = round < kCheckedRounds;
    if (!checked && SecondsSince(timed_begin) >= options.seconds &&
        cold_stats.wall_ms.size() >= min_cold &&
        warm_stats.wall_ms.size() >= min_warm) {
      break;
    }
    for (int segment = 0; segment < kColdPerRound; ++segment) {
      // Segments 0 and 2 take consecutive mesh_16 variants, segment 1 the
      // round's mesh_32 variant.
      const OrchestrationProblem& problem =
          segment == 1
              ? replay->mesh32[static_cast<size_t>(round % kVariants)]
              : replay->mesh16[static_cast<size_t>((2 * round + segment / 2) %
                                                   kVariants)];
      const auto begin = Clock::now();
      const Solution& cold =
          replay->cold_orchestrator.Solve(SolveRequest::Cold(problem));
      cold_stats.Add(cold.stats, SecondsSince(begin) * 1e3);
      if (checked) {
        ++result.attempted;
        Tally(cold, &solve_qoe, &counts);
        const std::string error = ValidateSolution(problem, cold);
        if (!error.empty()) result.Fail("cold solve invalid: " + error);
      }
      for (int w = 0; w < kWarmPerCold; ++w, ++warm_index) {
        deltas.Next();
        const int64_t allocs_before = alloc::total_allocations();
        const auto warm_begin = Clock::now();
        const Solution& warm =
            replay->warm_orchestrator.Solve(SolveRequest::Warm(replay->webinar));
        warm_stats.Add(warm.stats, SecondsSince(warm_begin) * 1e3);
        warm_allocs += alloc::total_allocations() - allocs_before;
        if (!checked) continue;
        ++result.attempted;
        Tally(warm, &solve_qoe, &counts);
        const std::string error = ValidateSolution(replay->webinar, warm);
        if (!error.empty()) result.Fail("warm solve invalid: " + error);
        if (std::find(identity_checks.begin(), identity_checks.end(),
                      warm_index) != identity_checks.end() &&
            !SameSolution(warm,
                          reference.Solve(SolveRequest::Cold(replay->webinar)))) {
          result.Fail("warm solve " + std::to_string(warm_index) +
                      " differs from a cold solve");
        }
      }
      if (round % kUplinkEvery != 1 || segment != 0) continue;
      // Publishers are the webinar's first ten budgets; joiners come after.
      DataRate& uplink = replay->webinar.budgets[static_cast<size_t>(
          uplink_rng.UniformInt(0, 9))].uplink;
      const DataRate restored = uplink;
      for (const bool drop : {true, false}) {
        uplink = drop ? DataRate::KilobitsPerSec(kDroppedUplinkKbps) : restored;
        const auto begin = Clock::now();
        const Solution& warm = replay->warm_orchestrator.Solve(
            SolveRequest::Warm(replay->webinar));
        (drop ? reduce_stats : restore_stats)
            .Add(warm.stats, SecondsSince(begin) * 1e3);
        if (!checked) continue;
        ++result.attempted;
        Tally(warm, &solve_qoe, &counts);
        const std::string error = ValidateSolution(replay->webinar, warm);
        if (!error.empty()) result.Fail("uplink-delta solve invalid: " + error);
        if (drop && warm.stats.reductions == 0) {
          result.Fail("an uplink drop below the ladder did not reduce");
        }
        if (drop && !reduce_identity_checked) {
          reduce_identity_checked = true;
          if (!SameSolution(warm, reference.Solve(
                                      SolveRequest::Cold(replay->webinar)))) {
            result.Fail("a reducing warm solve differs from a cold solve");
          }
        }
      }
    }
  }

  result.checks["solve_qoe"] = solve_qoe;
  result.checks["knapsack_solves"] = static_cast<double>(counts.knapsacks);

  result.Report("setup_s", Median(setup_s), "s", setup_s.size());
  result.Report("step_p50_ms", Median(warm_stats.wall_ms), "ms",
                warm_stats.wall_ms.size());
  result.Report("cold_solve_p50_ms", Median(cold_stats.wall_ms), "ms",
                cold_stats.wall_ms.size());
  result.Report("cold_solve_p90_ms", Percentile(cold_stats.wall_ms, 90), "ms",
                cold_stats.wall_ms.size());
  result.Report("warm_solve_p50_ms", Median(warm_stats.wall_ms), "ms",
                warm_stats.wall_ms.size());
  result.Report("warm_solve_p99_ms", Percentile(warm_stats.wall_ms, 99), "ms",
                warm_stats.wall_ms.size());
  result.Report("warm_reduce_p50_ms", Median(reduce_stats.wall_ms), "ms",
                reduce_stats.wall_ms.size());
  result.Report("warm_restore_p50_ms", Median(restore_stats.wall_ms), "ms",
                restore_stats.wall_ms.size());
  result.Report("solve_qoe", solve_qoe, "score");
  result.Report("failed_ratio",
                static_cast<double>(result.failed) /
                    static_cast<double>(result.attempted),
                "ratio", result.attempted);

  if (!traced) {
    result.Set("setup_s", Median(setup_s), "s", setup_s.size());
    std::vector<double>& warm = warm_stats.wall_ms;
    std::vector<double>& cold = cold_stats.wall_ms;
    result.Set("step_p50_ms", Median(warm), "ms", warm.size());
    result.Set("step_p90_ms", Percentile(warm, 90), "ms", warm.size());
    result.Set("solve_p50_ms", Median(cold), "ms", cold.size());
    result.Set("solve_p90_ms", Percentile(cold, 90), "ms", cold.size());
    result.Set("qoe", solve_qoe, "score");
    return result;
  }

  const auto set_p50 = [&](const std::string& name, std::vector<double>& v) {
    result.Set(name, Median(v), "us", v.size());
  };
  set_p50("core.cold.compile_us", cold_stats.compile_us);
  set_p50("core.cold.step1_us", cold_stats.step1_us);
  set_p50("core.cold.step23_us", cold_stats.step23_us);
  set_p50("core.warm.compile_us", warm_stats.compile_us);
  set_p50("core.warm.diff_us", warm_stats.diff_us);
  set_p50("core.warm.step1_us", warm_stats.step1_us);
  set_p50("core.warm.step23_us", warm_stats.step23_us);
  set_p50("core.warm_reduce.step1_us", reduce_stats.step1_us);
  set_p50("core.warm_reduce.step23_us", reduce_stats.step23_us);
  result.Set("core.knapsack_solves", static_cast<double>(counts.knapsacks),
             "count");
  result.Set("core.step1_cache_hits", static_cast<double>(counts.cache_hits),
             "count");
  result.Set("core.dirty_subscribers", static_cast<double>(counts.dirty),
             "count");
  result.Set("core.iterations", static_cast<double>(counts.iterations),
             "count");
  result.Set("core.allocs_per_warm_solve",
             static_cast<double>(warm_allocs) /
                 static_cast<double>(warm_stats.wall_ms.size()),
             "count");
  return result;
}

}  // namespace gso::perfbench
