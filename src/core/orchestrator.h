// The GSO control algorithm (paper §4.1): iterative
// Knapsack -> Merge -> Reduction until every constraint holds.
//
//  Step 1 (Knapsack)  — per subscriber, fill the downlink B_d with at most
//    one stream per subscribed source, maximizing priority-weighted QoE
//    (one Multiple-Choice Knapsack per subscriber; Eq. 1-4).
//  Step 2 (Merge)     — per source, requests for the same resolution are
//    merged into one stream at the minimum requested bitrate (codec
//    capability: at most one bitrate per resolution; Eq. 7-13).
//  Step 3 (Reduction) — per publisher, check the uplink budget B_u
//    (Eq. 14). If violated but fixable (Eq. 17), replace stream bitrates
//    with lower ones of the same resolution via a small mandatory knapsack
//    (Eq. 15-16). If unfixable, remove the highest published resolution
//    from that publisher's feasible set (Eq. 18-20) — one publisher per
//    iteration — and restart from Step 1.
//
// Convergence: each iteration either terminates or strictly shrinks one
// source's feasible set, so iterations <= #sources x #resolutions.
//
// The solve runs on a dense-index compiled form of the problem (see
// core/compiled_problem.h): ids are interned once per solve and the hot
// loop touches only flat vectors, reusable MCKP workspaces and bitmaps.
// Step 1 runs serially: a cold solve of a 64-party mesh takes ~0.1 s, well
// inside the 1-3 s control interval, and the fleet service already runs
// whole conferences in parallel, one shard per thread.
//
// Warm-start (SolveRequest::Warm): the orchestrator retains the previous
// compiled problem and per-subscriber Step-1 results across solves. Each warm
// recompiles the new snapshot into reused storage, value-diffs it against
// the previous one, and invalidates only the subscribers whose Step-1
// inputs (edge list, downlink, watched ladders) actually changed — every
// other subscriber's knapsack is answered from the cache. A cached result
// is a pure function of those inputs plus the Reduction removal state, so
// replaying it is bit-identical to re-solving; Steps 2/3 and solution
// assembly always run in full, preserving the reference float-accumulation
// order. After warm-up, a warm solve performs zero heap allocations.
#ifndef GSO_CORE_ORCHESTRATOR_H_
#define GSO_CORE_ORCHESTRATOR_H_

#include <memory>
#include <string>

#include "core/compiled_problem.h"
#include "core/mckp.h"
#include "core/types.h"

namespace gso::core {

struct Step1Request;  // one subscription's Step-1 choice (orchestrator.cpp)

// The single argument of Orchestrator::Solve; the orchestrator picks the
// execution strategy from the request:
//  - Cold(problem): compile from scratch, solve everything.
//  - Warm(problem): recompile into retained storage, diff against the
//                   previous warm snapshot, and re-run Step 1 only for
//                   subscribers whose inputs changed. Bit-identical to
//                   Cold(problem); only the `stats` trace differs.
// The referenced problem must outlive the Solve call; the snapshot a warm
// request retains for the *next* diff is compared by value only, so the
// caller may mutate or destroy the problem afterwards.
struct SolveRequest {
  const OrchestrationProblem* problem = nullptr;
  // Reuse warm state from the previous warm solve (delta re-solve).
  bool warm = false;

  static SolveRequest Cold(const OrchestrationProblem& problem) {
    SolveRequest request;
    request.problem = &problem;
    return request;
  }
  static SolveRequest Warm(const OrchestrationProblem& problem) {
    SolveRequest request;
    request.problem = &problem;
    request.warm = true;
    return request;
  }
};

class Orchestrator {
 public:
  // `step1_solver` solves the per-subscriber MCKP; pass DpMckpSolver for
  // production behaviour or ExhaustiveMckpSolver for the brute-force
  // baseline. The solver must outlive the orchestrator.
  explicit Orchestrator(const MckpSolver* step1_solver);
  ~Orchestrator();

  Orchestrator(const Orchestrator&) = delete;
  Orchestrator& operator=(const Orchestrator&) = delete;

  // The one solve entry point (see SolveRequest for strategy selection).
  // The returned Solution carries the full solve trace in `Solution::stats`
  // (work counts + per-step wall time). The reference lives in the
  // orchestrator and is valid until the next solve call; copy it to keep
  // it across solves.
  const Solution& Solve(const SolveRequest& request) const;

  // Drops all warm state (previous snapshot + Step-1 caches); the next
  // warm request behaves like a first call. Storage is kept for reuse.
  void ResetWarmState() const;

 private:
  struct Workspace;  // grow-only per-solve scratch, defined in the .cpp

  // Strategy bodies behind Solve(); see SolveRequest for their contracts.
  const Solution& SolveCold(const OrchestrationProblem& problem) const;
  const Solution& SolveWarm(const OrchestrationProblem& problem) const;
  const Solution& RunSolve(const CompiledProblem& compiled,
                           bool use_cache) const;
  void Step1ForSubscriber(const CompiledProblem& compiled, int subscriber,
                          bool use_cache) const;
  // Solves one subscriber's knapsack into `*requests` and points its
  // Step-1 view there.
  void SolveSubscriberMckp(const CompiledProblem& compiled, int subscriber,
                           std::vector<Step1Request>* requests) const;
  // Diffs the previous warm snapshot against warm_compiled[next],
  // invalidating caches whose inputs changed; returns the dirty count.
  int PrepareWarmCaches(int next) const;

  const MckpSolver* step1_solver_;
  DpMckpSolver fix_solver_;
  mutable std::unique_ptr<Workspace> ws_;
};

// Validates an OrchestrationProblem / Solution pair: every budget,
// codec-capability and subscription constraint holds. Returns an empty
// string when valid, else a description of the first violation. Used by
// the property and equivalence tests and by the benches that check their
// solves; nothing in the running system calls it.
std::string ValidateSolution(const OrchestrationProblem& problem,
                             const Solution& solution);

}  // namespace gso::core

#endif  // GSO_CORE_ORCHESTRATOR_H_
