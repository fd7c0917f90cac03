// Controller scaling benchmark with a machine-readable trajectory output.
//
// Times full Orchestrator::Solve calls (ns/solve) on the canonical shapes
// the ROADMAP tracks — symmetric meshes of 8/16/32/64 participants and the
// 10x200 webinar — as serial cold solves, plus warm-start delta re-solves
// (SolveWarm) for the controller's steady-state event kinds: a single
// bandwidth report, a subscriber join, a subscriber leave. Every warm
// measurement is verified bit-identical against a cold solve before it is
// timed. The rows are timed in interleaved round-robin batches (see
// TimeInterleaved). Results are written as BENCH rows (bench/bench_json.h):
// per shape the wall_ns_per_solve latency and the wall_timed_solves of the
// kept batch (both read off the host clock), the solution's total_qoe and
// iterations, which no optimization may change, and dp_cells, the DP cells
// one solve relaxes: exact work that a regression cannot hide in host noise
// (see BENCH_controller.json at the repo root and tools/perf_gate.py). The
// document's host block names the vector ISA of the DP kernel build the
// loader picked ("isa", DpMckpSolver::KernelIsa).
//
// With --trace-out=FILE it additionally dumps one observability trace per
// shape (SolveStats work counts and per-step wall time as schema-locked
// JSONL, shapes indexed on the time axis) for offline solver profiling.
//
// Usage: controller_scaling [--out=FILE] [--min-time=SECONDS] [--label=NAME]
//                           [--trace-out=FILE]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_json.h"
#include "bench/support.h"
#include "core/mckp.h"
#include "core/orchestrator.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace {

using namespace gso;
using namespace gso::core;

struct Shape {
  std::string name;
  OrchestrationProblem problem;
};

struct Row {
  std::string shape;
  double ns_per_solve = 0.0;
  int solves = 0;
  double total_qoe = 0.0;  // sanity: must not change across optimizations
  int iterations = 0;
  int64_t dp_cells = 0;  // SolveStats::dp_cells of one (untimed) solve
};

// A row under measurement: `solve(i)` runs the i-th measured solve of the
// row, plus any untimed set-up or restore around it, and returns the wall
// time of that solve in seconds.
struct Timed {
  Row row;
  std::function<double(int)> solve;
  int calls = 0;  // measured solves so far, over all batches
};

// Times every row in three round-robin rounds. Each round runs one batch
// per row, repeating its solve until `min_seconds` of timed wall time, and
// each row keeps its fastest batch (per-solve average) to damp scheduler
// noise. Interleaving spreads a shift in host speed (another tenant, a
// frequency change) over every row alike, which the gate's host factor
// (the median ratio over all rows) then absorbs; back-to-back batches of
// one row would pin such a shift on whichever rows ran during it.
void TimeInterleaved(std::vector<Timed>* timed, double min_seconds) {
  for (int round = 0; round < 3; ++round) {
    for (Timed& t : *timed) {
      int solves = 0;
      double elapsed = 0.0;
      while (elapsed < min_seconds) {
        elapsed += t.solve(t.calls++);
        ++solves;
      }
      const double per_solve = elapsed / solves * 1e9;
      if (round == 0 || per_solve < t.row.ns_per_solve) {
        t.row.ns_per_solve = per_solve;
        t.row.solves = solves;
      }
    }
  }
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Cold solves of `shape`, which must outlive the returned row.
Timed ColdShape(const Shape& shape, const MckpSolver* solver) {
  auto orchestrator = std::make_shared<Orchestrator>(solver);
  Timed timed;
  timed.row.shape = shape.name;
  {
    // Warm-up, and record invariants.
    const Solution& s = orchestrator->Solve(SolveRequest::Cold(shape.problem));
    timed.row.total_qoe = s.total_qoe;
    timed.row.iterations = s.iterations;
    timed.row.dp_cells = s.stats.dp_cells;
  }
  timed.solve = [orchestrator, &problem = shape.problem](int) {
    const auto start = std::chrono::steady_clock::now();
    {
      const Solution s = orchestrator->Solve(SolveRequest::Cold(problem));
      if (s.iterations == 0) std::abort();  // keep the call alive
    }
    return SecondsSince(start);
  };
  return timed;
}

// Bit-level equality of the semantic Solution fields — the same contract
// the warm-solve property test asserts. A bench that times an incremental
// solver which drifted from the cold solver would be measuring a bug, so
// any mismatch is fatal.
bool SameSolution(const Solution& a, const Solution& b) {
  if (a.iterations != b.iterations || a.total_qoe != b.total_qoe ||
      a.step1_qoe != b.step1_qoe) {
    return false;
  }
  if (a.publish.size() != b.publish.size() ||
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
    if (!(sa->first == sb->first) || sa->second.size() != sb->second.size()) {
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

// Mutates or restores a warm problem before or after its i-th measured
// solve; a restore returns whether it changed the problem.
using Mutation = std::function<void(OrchestrationProblem&, int)>;
using Restore = std::function<bool(OrchestrationProblem&, int)>;

// Times SolveWarm under a repeating delta: each measured solve follows one
// `mutate(i)` of the problem; `restore(i)` undoes the mutation with an
// untimed warm solve when it returns true, so the measured state is
// periodic. The first few cycles verify warm-vs-cold bit-identity before
// any timing.
Timed DeltaShape(const std::string& name, const MckpSolver* solver,
                 OrchestrationProblem problem, Mutation mutate,
                 Restore restore) {
  struct State {
    explicit State(const MckpSolver* solver) : orchestrator(solver) {}
    Orchestrator orchestrator;
    OrchestrationProblem problem;
  };
  auto state = std::make_shared<State>(solver);
  state->problem = std::move(problem);
  Timed timed;
  timed.row.shape = name;

  DpMckpSolver cold_solver;
  const Orchestrator cold(&cold_solver);
  (void)state->orchestrator.Solve(SolveRequest::Warm(state->problem));
  for (int i = 0; i < 4; ++i) {
    mutate(state->problem, i);
    const Solution& warm =
        state->orchestrator.Solve(SolveRequest::Warm(state->problem));
    if (!SameSolution(warm, cold.Solve(SolveRequest::Cold(state->problem)))) {
      std::fprintf(stderr, "%s: warm solve diverged from cold solve\n",
                   name.c_str());
      std::exit(1);
    }
    timed.row.total_qoe = warm.total_qoe;
    timed.row.iterations = warm.iterations;
    timed.row.dp_cells = warm.stats.dp_cells;
    if (restore(state->problem, i)) {
      (void)state->orchestrator.Solve(SolveRequest::Warm(state->problem));
    }
  }

  timed.solve = [state, mutate = std::move(mutate),
                 restore = std::move(restore)](int i) {
    mutate(state->problem, i);
    const auto start = std::chrono::steady_clock::now();
    const Solution& s =
        state->orchestrator.Solve(SolveRequest::Warm(state->problem));
    const double elapsed = SecondsSince(start);
    if (s.iterations == 0) std::abort();  // keep the call alive
    if (restore(state->problem, i)) {
      (void)state->orchestrator.Solve(SolveRequest::Warm(state->problem));
    }
    return elapsed;
  };
  return timed;
}

// The three steady-state delta kinds on one base shape. The joining client
// is subscriber-only (watches every publisher): its arrival and departure
// leave every existing subscriber's inputs untouched, which is exactly the
// structural-delta fast path the warm diff is meant to exploit.
void AddDeltaShapes(const Shape& shape, const MckpSolver* solver,
                    std::vector<Timed>* timed) {
  {  // delta_report: one client's downlink report moves.
    const size_t victim = shape.problem.budgets.size() / 2;
    const DataRate base = shape.problem.budgets[victim].downlink;
    timed->push_back(DeltaShape(
        shape.name + "+delta_report", solver, shape.problem,
        [victim, base](OrchestrationProblem& problem, int i) {
          problem.budgets[victim].downlink =
              i % 2 == 0 ? base + DataRate::KilobitsPerSec(500) : base;
        },
        [](OrchestrationProblem&, int) { return false; }));
  }

  std::vector<SourceId> publishers;
  for (const auto& cap : shape.problem.capabilities) {
    publishers.push_back(cap.source);
  }
  const ClientId joiner{1000000};
  const auto add_joiner = [joiner, publishers](OrchestrationProblem& problem) {
    problem.budgets.push_back({joiner, DataRate::KilobitsPerSec(2000),
                               DataRate::KilobitsPerSec(6000)});
    for (const SourceId& source : publishers) {
      problem.subscriptions.push_back(
          {joiner, source, kResolution720p, 1.0, 0});
    }
  };
  const auto remove_joiner = [n = publishers.size()](
                                 OrchestrationProblem& problem) {
    problem.budgets.pop_back();
    problem.subscriptions.resize(problem.subscriptions.size() - n);
  };

  // delta_join: the new subscriber appears (timed), departs (untimed).
  timed->push_back(DeltaShape(
      shape.name + "+delta_join", solver, shape.problem,
      [add_joiner](OrchestrationProblem& problem, int) {
        add_joiner(problem);
      },
      [remove_joiner](OrchestrationProblem& problem, int) {
        remove_joiner(problem);
        return true;
      }));

  // delta_leave: the subscriber departs (timed), rejoins (untimed).
  OrchestrationProblem joined = shape.problem;
  add_joiner(joined);
  timed->push_back(DeltaShape(
      shape.name + "+delta_leave", solver, std::move(joined),
      [remove_joiner](OrchestrationProblem& problem, int) {
        remove_joiner(problem);
      },
      [add_joiner](OrchestrationProblem& problem, int) {
        add_joiner(problem);
        return true;
      }));
}

// One solve per shape into an obs registry: the control-plane solve-trace
// series, indexed by shape position on the (virtual) time axis since the
// bench has no event loop.
void RecordSolveTraces(obs::MetricsRegistry* registry,
                       const std::vector<Shape>& shapes) {
  using obs::MetricKind;
  DpMckpSolver solver;
  Orchestrator orchestrator(&solver);
  for (size_t i = 0; i < shapes.size(); ++i) {
    const Solution s = orchestrator.Solve(SolveRequest::Cold(shapes[i].problem));
    const SolveStats& stats = s.stats;
    const Timestamp t = Timestamp::Micros(static_cast<int64_t>(i));
    const obs::Labels labels = {{"shape", shapes[i].name}};
    const struct {
      const char* name;
      const char* unit;
      double value;
    } series[] = {
        {"control.solve.iterations", "count", double(stats.iterations)},
        {"control.solve.knapsacks", "count", double(stats.knapsack_solves)},
        {"control.solve.reductions", "count", double(stats.reductions)},
        {"control.solve.uplink_fixes", "count", double(stats.uplink_fixes)},
        {"control.solve.dirty_subscribers", "count",
         double(stats.dirty_subscribers)},
        {"control.solve.cache_hits", "count", double(stats.step1_cache_hits)},
        {"control.solve.dp_cells", "count", double(stats.dp_cells)},
        {"control.solve.compile_wall", "us", stats.compile_wall_us},
        {"control.solve.step1_wall", "us", stats.step1_wall_us},
        {"control.solve.step1_mckp_wall", "us", stats.step1_mckp_wall_us},
        {"control.solve.step2_wall", "us", stats.step2_wall_us},
        {"control.solve.step3_wall", "us", stats.step3_wall_us},
        {"control.solve.assemble_wall", "us", stats.assemble_wall_us},
        {"control.solve.warm_diff_wall", "us", stats.warm_diff_wall_us},
        {"control.solve.wall", "us", stats.total_wall_us},
    };
    for (const auto& entry : series) {
      registry->Get(entry.name, MetricKind::kSeries, entry.unit, labels)
          ->Record(t, entry.value);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_controller.json";
  std::string label = "current";
  std::string trace_out;
  double min_seconds = 0.3;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else if (arg.rfind("--label=", 0) == 0) {
      label = arg.substr(8);
    } else if (arg.rfind("--min-time=", 0) == 0) {
      char* end = nullptr;
      min_seconds = std::strtod(arg.c_str() + 11, &end);
      if (end == arg.c_str() + 11 || *end != '\0' || min_seconds < 0) {
        std::fprintf(stderr, "invalid --min-time value: %s\n",
                     arg.c_str() + 11);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "unknown argument: %s\n"
                   "usage: controller_scaling [--out=FILE] "
                   "[--min-time=SECONDS] [--label=NAME] [--trace-out=FILE]\n",
                   arg.c_str());
      return 2;
    }
  }

  std::vector<Shape> shapes;
  for (int n : {8, 16, 32, 64}) {
    shapes.push_back({"mesh_" + std::to_string(n),
                      gso::bench::MeshProblem(n, n, 5, 42)});
  }
  shapes.push_back(
      {"webinar_10x200", gso::bench::MeshProblem(10, 200, 6, 43)});

  // Cold solves of every shape, then warm-start deltas on the two shapes
  // whose cold solves dominate a real deployment: the largest mesh and the
  // webinar.
  const DpMckpSolver solver;
  std::vector<Timed> timed;
  for (const auto& shape : shapes) timed.push_back(ColdShape(shape, &solver));
  for (const auto& shape : shapes) {
    if (shape.name != "mesh_64" && shape.name != "webinar_10x200") continue;
    AddDeltaShapes(shape, &solver, &timed);
  }
  TimeInterleaved(&timed, min_seconds);

  std::vector<Row> rows;
  for (const Timed& t : timed) {
    rows.push_back(t.row);
    std::printf("%-28s %10.0f ns/solve  (%d solves, qoe %.1f)\n",
                t.row.shape.c_str(), t.row.ns_per_solve, t.row.solves,
                t.row.total_qoe);
  }

  gso::bench::BenchJson json(label);
  // Wall rows timed on different DP kernel builds are not like for like;
  // tools/perf_gate.py notes a mismatch.
  json.AddHostField("isa", DpMckpSolver::KernelIsa());
  for (const Row& row : rows) {
    json.Add(row.shape, "wall_ns_per_solve", "ns", row.ns_per_solve);
    json.Add(row.shape, "wall_timed_solves", "count", row.solves);
    json.Add(row.shape, "total_qoe", "score", row.total_qoe, 6);
    json.Add(row.shape, "iterations", "count", row.iterations);
    json.Add(row.shape, "dp_cells", "count",
             static_cast<double>(row.dp_cells));
  }
  if (!json.Write(out)) return 1;
  std::printf("wrote %s\n", out.c_str());

  if (!trace_out.empty()) {
    obs::MetricsRegistry registry;
    RecordSolveTraces(&registry, shapes);
    if (!obs::WriteFile(trace_out, obs::ToJsonLines(registry))) return 1;
    std::printf("wrote %zu solve-trace series to %s\n", registry.num_metrics(),
                trace_out.c_str());
  }
  return 0;
}
