// Fleet-scale orchestration-service benchmark (BENCH_fleet.json).
//
// Runs churn storms against the OrchestrationService: ramp to a target of
// concurrent conferences, sustain it under join/leave churn plus periodic
// fault waves (link flaps, control-channel loss, controller crashes,
// in-meeting participant churn), and measure
//  - the storm's wall time and the solves it committed,
//  - p99 solve-queue latency (wall clock, Push -> drain),
//  - fleet QoE under the storm (mean and 5th-percentile satisfaction).
//
// Two storm sizes run: a 200-conference warmup shape and the 1000-
// conference acceptance shape. Each storm is one name in the BENCH rows
// (bench/bench_json.h); its host-clock metrics are wall_seconds and
// wall_queue_p99_us, which tools/perf_gate.py normalizes by host speed,
// and its digest is bit-stable run to run. The bench itself fails
// (non-zero exit) when the fleet cannot sustain the target concurrency or
// the QoE floor drops below kQoeFloorMin: load shedding that starves
// meetings must fail the build, not just slow a metric.
//
// The shard-kill suite (also reachable alone via --kill-shards) layers
// whole-shard outages on a smaller sustained storm: a timed crash plus a
// permanent one restored late, both scripted on the service's control-
// plane fault plan over lossy gossip links. It checks the failure-domain
// machinery end to end — every victim re-homed onto survivors, recovery
// latency bounded, the fleet digest bit-identical across sequential vs
// parallel shard scheduling and across gossip seeds with identical
// delivery outcomes, and post-recovery fleet QoE within 5% of a fault-
// free twin — and emits a fleet_failover_* row (recovery p99, degraded-
// window QoE floor) for the perf gate. --quick shrinks the suite to the
// ASan CI profile (primary + twin only).
//
// Usage: fleet_service [--out=FILE] [--label=NAME] [--trace-out=FILE]
//                      [--kill-shards] [--quick]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "common/stats.h"

#include "obs/export.h"
#include "obs/metrics.h"
#include "service/churn.h"
#include "service/service.h"

namespace {

using namespace gso;

// Minimum acceptable 5th-percentile satisfaction across completed
// conferences. Storm victims (flapped links, crashed controllers) sit in
// this tail; the GSO control loop must still recover them above this line.
constexpr double kQoeFloorMin = 0.30;

struct StormShape {
  std::string name;
  int target_concurrent = 0;
  int num_shards = 1;
  TimeDelta mean_lifetime = TimeDelta::Seconds(12);
  TimeDelta duration = TimeDelta::Seconds(20);
};

struct StormResult {
  StormShape shape;
  double wall_seconds = 0;
  double queue_p50_us = 0;
  double queue_p99_us = 0;
  uint64_t solves = 0;
  uint64_t shed = 0;
  int sustained_concurrent = 0;
  int completed = 0;
  double completed_per_wall_sec = 0;
  double mean_satisfaction = 0;
  double qoe_floor = 0;  // p5 satisfaction
  uint64_t digest = 0;
  service::ChurnStats churn;
};

StormResult RunStorm(const StormShape& shape, obs::MetricsRegistry* registry) {
  service::ServiceConfig config;
  config.num_shards = shape.num_shards;
  config.max_conferences = shape.target_concurrent;
  config.solve_backlog = 64;
  config.metrics = registry;
  service::OrchestrationService svc(config);

  service::ChurnConfig churn_config;
  churn_config.target_concurrent = shape.target_concurrent;
  churn_config.mean_lifetime = shape.mean_lifetime;
  churn_config.seed = 17;
  service::ChurnStorm storm(&svc, churn_config);

  const auto start = std::chrono::steady_clock::now();
  storm.RunFor(shape.duration);
  const auto end = std::chrono::steady_clock::now();

  StormResult result;
  result.shape = shape;
  result.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  result.sustained_concurrent = svc.conference_count();

  service::FleetReport report = svc.Report();
  result.solves = report.solves;
  result.shed = report.solves_shed;
  result.completed = report.completed;
  result.completed_per_wall_sec =
      static_cast<double>(report.completed) / result.wall_seconds;
  result.mean_satisfaction = report.mean_satisfaction;
  result.qoe_floor = report.p5_satisfaction;
  result.digest = report.digest;
  result.churn = storm.stats();
  // Queue latency: report the worst shard's percentiles — the gate cares
  // about the slowest queue, which is exactly the max.
  for (int i = 0; i < svc.num_shards(); ++i) {
    SampleSet& shard_latency = svc.shard(i).queue_stats().queue_latency_us;
    if (shard_latency.empty()) continue;
    result.queue_p50_us =
        std::max(result.queue_p50_us, shard_latency.Percentile(50));
    result.queue_p99_us =
        std::max(result.queue_p99_us, shard_latency.Percentile(99));
  }
  return result;
}

// --- Shard-kill storm ------------------------------------------------------

// Post-recovery QoE must be within this fraction of the fault-free twin.
constexpr double kMaxQoeRecoveryGap = 0.05;

struct KillShape {
  std::string name = "fleet_failover_64x8";
  int target_concurrent = 64;
  int num_shards = 8;
  TimeDelta mean_lifetime = TimeDelta::Seconds(12);
  double gossip_loss = 0.05;
  // Crash A is timed (the shard restores itself once its victims are
  // evacuated); crash B stays dark until its scripted restart. Both
  // recoveries complete well before the post-recovery QoE window opens.
  Timestamp crash_a = Timestamp::Seconds(6);
  TimeDelta crash_a_duration = TimeDelta::Seconds(6);
  Timestamp crash_b = Timestamp::Seconds(10);
  Timestamp restart_b = Timestamp::Seconds(16);
  // The post-recovery window must only see conferences untouched by the
  // outage: every victim (and every rebalance-migrated meeting from the
  // post-crash skew bursts) was admitted before ~restart_b and lives at
  // most 1.5 * mean_lifetime, so by crash_b + 1.5 * mean_lifetime the
  // fault era has fully retired.
  Timestamp qoe_window_start = Timestamp::Seconds(28);
  TimeDelta duration = TimeDelta::Seconds(34);
};

struct KillResult {
  double wall_seconds = 0;
  double queue_p99_us = 0;
  uint64_t solves = 0;
  uint64_t shed = 0;
  int sustained_concurrent = 0;
  int completed = 0;
  double mean_satisfaction = 0;
  double qoe_floor = 0;
  uint64_t digest = 0;
  service::FailoverCounters counters;
  double recovery_p99_us = 0;
  double degraded_qoe_floor = 1.0;
  // Completed-conference mean satisfaction inside [qoe_window_start, end]:
  // the post-recovery window compared against the fault-free twin.
  double window_mean = 0;
  int window_completed = 0;
  bool all_shards_alive = false;
  bool any_stranded = false;
};

KillResult RunKillStorm(const KillShape& shape, bool parallel_shards,
                        uint64_t gossip_seed, double gossip_loss,
                        bool inject_faults) {
  service::ServiceConfig config;
  config.num_shards = shape.num_shards;
  config.max_conferences = shape.target_concurrent;
  config.solve_backlog = 64;
  config.parallel_shards = parallel_shards;
  config.gossip.seed = gossip_seed;
  config.gossip.link.loss_rate = gossip_loss;
  service::OrchestrationService svc(config);
  if (inject_faults) {
    svc.control_faults().ShardCrash(&svc.shard(2), shape.crash_a,
                                    shape.crash_a_duration);
    svc.control_faults().ShardCrash(&svc.shard(5), shape.crash_b);
    svc.control_faults().ShardRestart(&svc.shard(5), shape.restart_b);
  }

  service::ChurnConfig churn_config;
  churn_config.target_concurrent = shape.target_concurrent;
  churn_config.mean_lifetime = shape.mean_lifetime;
  churn_config.seed = 17;
  service::ChurnStorm storm(&svc, churn_config);

  const auto start = std::chrono::steady_clock::now();
  storm.RunFor(shape.qoe_window_start - Timestamp::Zero());
  const service::FleetReport at_window = svc.Report();
  storm.RunFor(shape.duration - (shape.qoe_window_start - Timestamp::Zero()));
  const auto end = std::chrono::steady_clock::now();

  KillResult result;
  result.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  result.sustained_concurrent = svc.conference_count();

  service::FleetReport report = svc.Report();
  result.solves = report.solves;
  result.shed = report.solves_shed;
  result.completed = report.completed;
  result.mean_satisfaction = report.mean_satisfaction;
  result.qoe_floor = report.p5_satisfaction;
  result.digest = report.digest;
  for (int i = 0; i < svc.num_shards(); ++i) {
    SampleSet& shard_latency = svc.shard(i).queue_stats().queue_latency_us;
    if (shard_latency.empty()) continue;
    result.queue_p99_us =
        std::max(result.queue_p99_us, shard_latency.Percentile(99));
  }
  result.counters = svc.failover();
  if (svc.recovery_us().total_added() > 0) {
    result.recovery_p99_us = svc.recovery_us().Percentile(99);
  }
  result.degraded_qoe_floor = svc.degraded_qoe_floor();
  result.window_completed = report.completed - at_window.completed;
  if (result.window_completed > 0) {
    result.window_mean =
        (report.mean_satisfaction * report.completed -
         at_window.mean_satisfaction * at_window.completed) /
        result.window_completed;
  }
  result.all_shards_alive = true;
  for (int i = 0; i < svc.num_shards(); ++i) {
    if (!svc.shard(i).alive()) result.all_shards_alive = false;
  }
  for (const uint64_t id : svc.live_ids()) {
    if (svc.Get(id) == nullptr) result.any_stranded = true;
  }
  return result;
}

// Runs the shard-kill suite; appends FAIL lines to stderr and returns
// false if any failure-domain gate breaks. `primary` receives the row the
// JSON export publishes.
bool RunKillSuite(const KillShape& shape, bool quick, KillResult* primary) {
  bool ok = true;
  const auto fail = [&ok](const std::string& what) {
    std::fprintf(stderr, "FAIL kill-shards: %s\n", what.c_str());
    ok = false;
  };

  *primary = RunKillStorm(shape, /*parallel_shards=*/true, /*gossip_seed=*/1,
                          shape.gossip_loss, /*inject_faults=*/true);
  const KillResult twin =
      RunKillStorm(shape, /*parallel_shards=*/true, /*gossip_seed=*/1,
                   shape.gossip_loss, /*inject_faults=*/false);

  const KillResult& r = *primary;
  std::printf(
      "%s: %d concurrent sustained, %d completed, %llu solves, "
      "crashes=%llu restarts=%llu rehomed=%llu limbo_removed=%llu "
      "rebalanced=%llu\n"
      "    recovery p99 %.0f us, degraded QoE floor %.3f, "
      "post-recovery QoE %.3f vs twin %.3f, overall floor(p5) %.3f, "
      "wall %.1fs\n",
      shape.name.c_str(), r.sustained_concurrent, r.completed,
      static_cast<unsigned long long>(r.solves),
      static_cast<unsigned long long>(r.counters.shard_crashes),
      static_cast<unsigned long long>(r.counters.shard_restarts),
      static_cast<unsigned long long>(r.counters.conferences_rehomed),
      static_cast<unsigned long long>(r.counters.limbo_removed),
      static_cast<unsigned long long>(r.counters.rebalance_migrations),
      r.recovery_p99_us, r.degraded_qoe_floor, r.window_mean,
      twin.window_mean, r.qoe_floor, r.wall_seconds);

  if (r.counters.shard_crashes != 2) {
    fail("expected 2 shard crashes, saw " +
         std::to_string(r.counters.shard_crashes));
  }
  if (r.counters.shard_restarts != 2) {
    fail("expected 2 shard restarts, saw " +
         std::to_string(r.counters.shard_restarts));
  }
  if (r.counters.conferences_rehomed < 2) {
    fail("fewer than 2 victims re-homed (" +
         std::to_string(r.counters.conferences_rehomed) + ")");
  }
  if (!r.all_shards_alive) fail("a shard never came back");
  if (r.any_stranded) fail("a conference is stranded on a dead shard");
  if (r.sustained_concurrent < shape.target_concurrent) {
    fail("sustained " + std::to_string(r.sustained_concurrent) +
         " < target " + std::to_string(shape.target_concurrent) +
         " after recovery");
  }
  if (r.recovery_p99_us <= 0 || r.recovery_p99_us > 5e6) {
    fail("recovery p99 " + std::to_string(r.recovery_p99_us) +
         " us out of bounds (detection is gossip suspicion + slices)");
  }
  if (r.qoe_floor < kQoeFloorMin) {
    fail("overall QoE floor " + std::to_string(r.qoe_floor) + " below " +
         std::to_string(kQoeFloorMin));
  }
  if (r.window_completed <= 0 || twin.window_completed <= 0) {
    fail("post-recovery window completed no conferences");
  } else if (r.window_mean < twin.window_mean * (1.0 - kMaxQoeRecoveryGap)) {
    fail("post-recovery QoE " + std::to_string(r.window_mean) +
         " more than 5% below fault-free twin " +
         std::to_string(twin.window_mean));
  }

  if (!quick) {
    // Determinism gates. Sequential scheduling must reproduce the parallel
    // digest bit-for-bit, and the gossip seed must not leak into the fleet
    // history when every control packet is delivered either way.
    const KillResult sequential =
        RunKillStorm(shape, /*parallel_shards=*/false, /*gossip_seed=*/1,
                     shape.gossip_loss, /*inject_faults=*/true);
    if (sequential.digest != r.digest) {
      fail("fleet digest differs between parallel and sequential "
           "scheduling under shard crashes");
    }
    const KillResult seed_a =
        RunKillStorm(shape, /*parallel_shards=*/false, /*gossip_seed=*/1,
                     /*gossip_loss=*/0.0, /*inject_faults=*/true);
    const KillResult seed_b =
        RunKillStorm(shape, /*parallel_shards=*/false, /*gossip_seed=*/99,
                     /*gossip_loss=*/0.0, /*inject_faults=*/true);
    if (seed_a.digest != seed_b.digest) {
      fail("fleet digest depends on the gossip seed despite identical "
           "delivery outcomes");
    }
    std::printf(
        "    digests: parallel %016llx == sequential %016llx; "
        "lossless gossip seeds 1/99 %016llx == %016llx\n",
        static_cast<unsigned long long>(r.digest),
        static_cast<unsigned long long>(sequential.digest),
        static_cast<unsigned long long>(seed_a.digest),
        static_cast<unsigned long long>(seed_b.digest));
  }
  return ok;
}

void PrintResult(const StormResult& r) {
  std::printf(
      "%s: %d concurrent sustained, %d completed (%.1f conf/s wall), "
      "%llu solves (%.2f ms/solve wall), %llu shed,\n"
      "    queue p50 %.0f us p99 %.0f us, satisfaction mean %.3f floor(p5) "
      "%.3f, wall %.1fs\n"
      "    churn: %llu joins %llu leaves %llu waves (%llu flaps, %llu loss, "
      "%llu outages, %llu member churns)\n",
      r.shape.name.c_str(), r.sustained_concurrent, r.completed,
      r.completed_per_wall_sec,
      static_cast<unsigned long long>(r.solves),
      r.solves > 0 ? r.wall_seconds * 1e3 / static_cast<double>(r.solves)
                   : 0.0,
      static_cast<unsigned long long>(r.shed), r.queue_p50_us, r.queue_p99_us,
      r.mean_satisfaction, r.qoe_floor, r.wall_seconds,
      static_cast<unsigned long long>(r.churn.joins),
      static_cast<unsigned long long>(r.churn.leaves),
      static_cast<unsigned long long>(r.churn.waves),
      static_cast<unsigned long long>(r.churn.link_flaps),
      static_cast<unsigned long long>(r.churn.loss_episodes),
      static_cast<unsigned long long>(r.churn.controller_outages),
      static_cast<unsigned long long>(r.churn.participant_churn));
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_fleet.json";
  std::string label = "fleet-service";
  std::string trace_out;
  bool kill_only = false;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
    } else if (arg.rfind("--label=", 0) == 0) {
      label = arg.substr(8);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else if (arg == "--kill-shards") {
      kill_only = true;
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: fleet_service [--out=FILE] [--label=NAME] "
                   "[--trace-out=FILE] [--kill-shards] [--quick]\n");
      return 2;
    }
  }

  std::vector<StormShape> shapes;
  {
    StormShape small;
    small.name = "fleet_storm_200";
    small.target_concurrent = 200;
    small.num_shards = 2;
    small.mean_lifetime = TimeDelta::Seconds(10);
    small.duration = TimeDelta::Seconds(12);
    shapes.push_back(small);

    StormShape large;
    large.name = "fleet_storm_1000";
    large.target_concurrent = 1000;
    large.num_shards = 4;
    large.mean_lifetime = TimeDelta::Seconds(12);
    large.duration = TimeDelta::Seconds(20);
    shapes.push_back(large);
  }

  std::printf("fleet_service: churn storms against the orchestration "
              "service\n\n");

  std::vector<StormResult> results;
  bool failed = false;
  if (kill_only) shapes.clear();
  for (size_t i = 0; i < shapes.size(); ++i) {
    // The small storm carries the metrics registry so the service.shard.*
    // series land in the (validated) JSONL trace without inflating the
    // acceptance storm.
    obs::MetricsRegistry registry;
    const bool traced = i == 0 && !trace_out.empty();
    StormResult result = RunStorm(shapes[i], traced ? &registry : nullptr);
    PrintResult(result);
    results.push_back(result);
    if (traced && !obs::WriteFile(trace_out, obs::ToJsonLines(registry))) {
      return 1;
    }

    if (result.sustained_concurrent < shapes[i].target_concurrent) {
      std::fprintf(stderr,
                   "FAIL %s: sustained %d < target %d concurrent "
                   "conferences\n",
                   shapes[i].name.c_str(), result.sustained_concurrent,
                   shapes[i].target_concurrent);
      failed = true;
    }
    if (result.qoe_floor < kQoeFloorMin) {
      std::fprintf(stderr,
                   "FAIL %s: QoE floor (p5 satisfaction) %.3f < %.3f under "
                   "the churn storm\n",
                   shapes[i].name.c_str(), result.qoe_floor, kQoeFloorMin);
      failed = true;
    }
  }

  // Shard-kill storm: always runs (the failover rows are part of the
  // gated baseline); --kill-shards runs it alone, --quick shrinks it to
  // the ASan CI profile.
  KillShape kill;
  if (quick) {
    kill.name = "fleet_failover_quick";
    kill.target_concurrent = 24;
    kill.mean_lifetime = TimeDelta::Seconds(6);
    kill.crash_a = Timestamp::Seconds(3);
    kill.crash_a_duration = TimeDelta::Seconds(3);
    kill.crash_b = Timestamp::Seconds(5);
    kill.restart_b = Timestamp::Seconds(9);
    kill.qoe_window_start = Timestamp::Seconds(19);
    kill.duration = TimeDelta::Seconds(24);
  }
  KillResult kill_result;
  if (!RunKillSuite(kill, quick, &kill_result)) failed = true;

  gso::bench::BenchJson json(label);
  // Metrics every storm shares; the QoE and digest rows are deterministic,
  // the wall_* rows are the host-clock timings.
  const auto add_storm = [&json](const std::string& name, int shards,
                                 const auto& r) {
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(r.digest));
    json.Add(name, "wall_seconds", "s", r.wall_seconds, 3);
    json.Add(name, "wall_queue_p99_us", "us", r.queue_p99_us);
    json.Add(name, "shards", "count", shards);
    json.Add(name, "solves", "count", r.solves);
    json.Add(name, "shed", "count", r.shed);
    json.Add(name, "concurrent", "count", r.sustained_concurrent);
    json.Add(name, "completed", "count", r.completed);
    json.Add(name, "mean_satisfaction", "score", r.mean_satisfaction, 6);
    json.Add(name, "qoe_floor", "score", r.qoe_floor, 6);
    json.AddText(name, "digest", "hex", digest);
  };
  for (const StormResult& r : results) {
    add_storm(r.shape.name, r.shape.num_shards, r);
  }
  {
    const KillResult& r = kill_result;
    const service::FailoverCounters& c = r.counters;
    add_storm(kill.name, kill.num_shards, r);
    json.Add(kill.name, "shard_crashes", "count", c.shard_crashes);
    json.Add(kill.name, "shard_restarts", "count", c.shard_restarts);
    json.Add(kill.name, "rehomed", "count", c.conferences_rehomed);
    json.Add(kill.name, "limbo_removed", "count", c.limbo_removed);
    json.Add(kill.name, "rebalanced", "count", c.rebalance_migrations);
    json.Add(kill.name, "recovery_p99_us", "us", r.recovery_p99_us);
    json.Add(kill.name, "degraded_qoe_floor", "score", r.degraded_qoe_floor,
             6);
    json.Add(kill.name, "post_recovery_qoe", "score", r.window_mean, 6);
  }
  if (!json.Write(out)) return 1;
  std::printf("\nwrote %s\n", out.c_str());
  return failed ? 1 : 0;
}
