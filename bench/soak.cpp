// Long-horizon soak harness (BENCH_soak.json).
//
// Phase A drives one GSO conference through hours of virtual time under a
// periodic storm script: participant churn from a fixed rotating id pool,
// link flaps, control-channel loss and controller outages on the core
// members. Phase B drives a small fleet (OrchestrationService + ChurnStorm)
// the same way. At every checkpoint the harness
//  - streams the obs registry to disk (MetricsStreamWriter.Flush) and
//    drains the fault plan's transition log, so nothing accumulates,
//  - samples process memory: VmRSS/VmHWM, live operator-new blocks
//    (common/alloc_tracker.h — this TU carries the counting operators) and
//    sanitizer live bytes under ASan,
//  - checks per-plane invariants: drained registries stay near-empty,
//    departed participants get reaped, SSRC ids stay monotone with a
//    bounded live-owner set, the event queue and solve queues stay flat,
//    no fault transitions are dropped,
//  - reports per-checkpoint QoE (worst-participant satisfaction).
//
// The headline gate is steady-state memory: the storm script is periodic
// with the measurement hour, so live allocations at the end of hour 2 may
// not exceed hour 1 by more than a small in-flight allowance, sanitizer
// live bytes must stay flat under ASan, and RSS must not creep. Any
// violated gate or invariant makes the bench exit non-zero.
//
// Usage: soak [--out=FILE] [--label=NAME] [--trace-out=FILE]
//             [--hours=N] [--short]
//   --short shrinks the run to ~10 virtual minutes of phase A and ~5 of
//   phase B with 1-minute checkpoints — same script, same gates, CI-sized.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#define GSO_ALLOC_TRACKER_IMPL
#include "common/alloc_tracker.h"
#include "conference/scenarios.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "service/churn.h"
#include "service/fleet_model.h"
#include "service/service.h"
#include "sim/fault_plan.h"

namespace {

using namespace gso;

// Minimum acceptable worst-participant satisfaction at any checkpoint.
// Matches the fleet benches: storm victims must recover, not flatline.
constexpr double kQoeFloorMin = 0.30;
// Live-block growth allowance between the two measurement intervals. The
// script is interval-periodic, so genuine steady state differs only by
// in-flight packets, timer closures captured mid-checkpoint, and the tail
// of amortized container-capacity warmup (measured to decay to ~0 within
// ~15 storm cycles). Real leak classes sit far above this: a single
// strand-on-feedback-loss bug leaked ~2000 blocks per loss episode
// (~12k/hour), unbounded sample retention ~40k/hour.
constexpr int64_t kMaxLiveAllocGrowth = 4096;
// ASan equivalent, in bytes (quantized allocator bins add slack).
constexpr int64_t kMaxSanitizerGrowthBytes = 1 << 20;
// RSS creep allowance between the measurement points (the OS may or may
// not return freed pages, so this is a runaway detector, not a precise
// gate — the allocation counters above are the precise ones).
constexpr long kMaxRssGrowthKb = 64 * 1024;

long ReadProcStatusKb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long value = 0;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      std::sscanf(line + key_len + 1, "%ld", &value);
      break;
    }
  }
  std::fclose(f);
  return value;
}

struct MemorySample {
  int64_t live_allocs = 0;       // counting operators (native builds)
  int64_t sanitizer_bytes = 0;   // ASan live bytes (sanitized builds)
  long rss_kb = 0;
  long hwm_kb = 0;
};

MemorySample SampleMemory() {
  MemorySample sample;
  sample.live_allocs = alloc::live_allocations();
  sample.sanitizer_bytes =
      static_cast<int64_t>(alloc::sanitizer_live_bytes());
  sample.rss_kb = ReadProcStatusKb("VmRSS");
  sample.hwm_kb = ReadProcStatusKb("VmHWM");
  return sample;
}

struct SoakResult {
  std::string shape;
  int shards = 0;  // fleet phase only
  double wall_seconds = 0;
  double virtual_hours = 0;
  uint64_t solves = 0;
  double qoe_floor = 1.0;
  int64_t live_alloc_growth = 0;      // hour 2 end minus hour 1 end
  int64_t sanitizer_growth_bytes = 0;
  long peak_rss_kb = 0;
  uint64_t samples_streamed = 0;
  uint64_t transitions_drained = 0;
};

using FailureLog = std::vector<std::string>;

void Fail(FailureLog& failures, std::string message) {
  std::fprintf(stderr, "FAIL %s\n", message.c_str());
  failures.push_back(std::move(message));
}

// --- Phase A: single-conference soak --------------------------------------

// One checkpoint period of the storm script. Periodic with the checkpoint
// index so consecutive measurement hours replay the identical script:
//  - a pool participant (ids 5..7, reused so their metric series intern
//    exactly once) joins at the start and leaves mid-period,
//  - one fault episode lands on a rotating core member (ids 1..4). Only
//    core members are fault targets: FaultPlan restore closures hold Link
//    pointers, and core links are never reaped.
struct StormKnobs {
  bool churn = true;   // --no-churn: skip the pool join/leave
  bool faults = true;  // --no-faults: skip the fault episode
};

void RunStormCheckpoint(conference::Conference& conference,
                        sim::FaultPlan& plan, int index, TimeDelta period,
                        const StormKnobs& knobs) {
  const uint32_t pool_id = 5 + static_cast<uint32_t>(index % 3);
  if (knobs.churn) {
    conference::ParticipantConfig pc;
    pc.client = conference::DefaultClient(pool_id);
    pc.access = conference::Access();
    conference.AddParticipant(pc);
    conference.SubscribeAllCameras(kResolution720p);
  }

  if (knobs.faults) {
    const Timestamp fault_at =
        conference.loop().Now() + TimeDelta::Seconds(10);
    const ClientId victim(1 + static_cast<uint32_t>(index % 4));
    switch (index % 3) {
      case 0:
        ScheduleLinkFlap(conference, plan, victim, fault_at,
                         TimeDelta::Seconds(2));
        break;
      case 1:
        ScheduleControlChannelLoss(conference, plan, victim, fault_at,
                                   TimeDelta::Seconds(10), 0.2);
        break;
      default:
        ScheduleControllerOutage(conference, plan, fault_at,
                                 TimeDelta::Seconds(2));
        break;
    }
  }

  conference.RunFor(period / 2);
  if (knobs.churn) conference.RemoveParticipant(ClientId(pool_id));
  conference.RunFor(period / 2);
}

SoakResult RunConferenceSoak(int checkpoints, TimeDelta period,
                             const std::string& trace_out,
                             const StormKnobs& knobs, FailureLog& failures) {
  SoakResult result;
  result.shape = "soak_conference";
  result.virtual_hours = checkpoints * period.seconds() / 3600.0;

  obs::MetricsRegistry registry;
  obs::MetricsStreamWriter writer(trace_out,
                                  obs::MetricsStreamWriter::Format::kJsonLines);
  conference::ConferenceConfig config;
  config.metrics = &registry;
  config.metrics_sample_period = TimeDelta::Seconds(1);
  config.departed_linger = TimeDelta::Seconds(30);
  auto conference = conference::BuildMeeting(config, 4);
  sim::FaultPlan plan(&conference->loop());
  plan.SetMetrics(&registry);

  const auto wall_start = std::chrono::steady_clock::now();
  conference->Start();
  conference->RunFor(TimeDelta::Seconds(10));
  conference->MarkMeasurementStart();

  std::vector<sim::FaultPlan::Transition> drained;
  uint32_t last_ssrc_next = conference->control().ssrc_allocator().next_value();
  // Hour boundaries in checkpoint indices: the gate compares the end of
  // the last full measurement period against the end of the previous one.
  // (With --short these are half-run marks; the script period divides
  // both, so the comparison is steady-state either way.)
  const int hour1_idx = checkpoints / 2;
  MemorySample hour1{}, hour2{};

  for (int i = 0; i < checkpoints; ++i) {
    RunStormCheckpoint(*conference, plan, i, period, knobs);

    // --- QoE over the window just completed -------------------------------
    const auto report = conference->Report();
    double worst = 1.0;
    for (const auto& participant : report.participants) {
      worst = std::min(
          worst, service::Satisfaction(participant.mean_video_stall_rate,
                                       participant.voice_stall_rate,
                                       participant.mean_framerate));
    }
    result.qoe_floor = std::min(result.qoe_floor, worst);
    conference->MarkMeasurementStart();

    // --- Streaming flush + per-plane invariants ---------------------------
    const Timestamp now = conference->loop().Now();
    if (!writer.Flush(registry, now)) {
      Fail(failures, "soak_conference: metrics stream flush failed");
    }
    if (registry.total_samples() > registry.num_metrics() * 64) {
      Fail(failures,
           "soak_conference: registry holds " +
               std::to_string(registry.total_samples()) +
               " samples after flush (report age-out broken?)");
    }
    plan.DrainTransitions(&drained);
    result.transitions_drained += drained.size();
    if (plan.transitions_dropped() != 0) {
      Fail(failures, "soak_conference: fault transitions dropped despite "
                     "per-checkpoint drain");
    }
    if (conference->departed_count() > 1) {
      Fail(failures, "soak_conference: departed participants accumulate (" +
                         std::to_string(conference->departed_count()) + ")");
    }
    const auto& ssrcs = conference->control().ssrc_allocator();
    if (ssrcs.next_value() < last_ssrc_next) {
      Fail(failures, "soak_conference: SSRC counter moved backwards");
    }
    last_ssrc_next = ssrcs.next_value();
    if (ssrcs.size() > 128) {
      Fail(failures, "soak_conference: live SSRC owner set grew to " +
                         std::to_string(ssrcs.size()));
    }
    if (conference->loop().pending_events() > 20000) {
      Fail(failures, "soak_conference: event queue backlog " +
                         std::to_string(conference->loop().pending_events()));
    }

    // --- Memory checkpoint ------------------------------------------------
    const MemorySample mem = SampleMemory();
    result.peak_rss_kb = std::max(result.peak_rss_kb, mem.hwm_kb);
    if (i + 1 == hour1_idx) hour1 = mem;
    if (i + 1 == checkpoints) hour2 = mem;
    std::printf(
        "  [%5.1f min] live_allocs=%lld rss=%ld kB qoe_worst=%.3f "
        "samples_streamed=%zu metrics=%zu probes=%zu events=%zu ssrcs=%zu\n",
        (i + 1) * period.seconds() / 60.0,
        static_cast<long long>(mem.live_allocs), mem.rss_kb, worst,
        writer.samples_flushed(), registry.num_metrics(),
        registry.num_probes(), conference->loop().pending_events(),
        ssrcs.size());
    const auto node_sizes = conference->node(0)->table_sizes();
    size_t views = 0, streams = 0, audio = 0, stalls = 0;
    for (uint32_t id = 1; id <= 4; ++id) {
      if (const auto* c = conference->client(ClientId(id))) {
        const auto cs = c->table_sizes();
        views += cs.views; streams += cs.received_streams;
        audio += cs.audio_intervals; stalls += cs.stall_intervals;
      }
    }
    std::printf(
        "            fwd=%zu switches=%zu uplinks=%zu paused=%zu nacks=%zu "
        "views=%zu rxstreams=%zu audio_iv=%zu stall_iv=%zu\n",
        node_sizes.forwarding, node_sizes.pending_switches,
        node_sizes.uplink_streams, node_sizes.paused, node_sizes.nack_entries,
        views, streams, audio, stalls);
    // Table-size invariants: a 4-7 participant meeting has tens of live
    // streams; anything in the hundreds means a purge path regressed.
    if (node_sizes.forwarding > 64 || node_sizes.pending_switches > 64 ||
        node_sizes.uplink_streams > 64 || node_sizes.paused > 64 ||
        node_sizes.nack_entries > 4096) {
      Fail(failures, "soak_conference: accessing-node table grew out of "
                     "bounds (departed-stream purge regressed?)");
    }
    if (views > 64 || streams > 64 || stalls > 4096 ||
        audio > 64 * (2 * period.seconds())) {
      Fail(failures, "soak_conference: client QoE tables grew out of bounds "
                     "(TrimQoeHistoryBefore regressed?)");
    }
  }

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  result.solves =
      static_cast<uint64_t>(conference->control().orchestration_count());
  result.samples_streamed = writer.samples_flushed();
  if (!writer.Close(registry)) {
    Fail(failures, "soak_conference: closing the metrics stream failed");
  }
  if (result.samples_streamed == 0) {
    Fail(failures, "soak_conference: the checkpoints streamed no samples");
  }
  if (knobs.faults && result.transitions_drained == 0) {
    Fail(failures, "soak_conference: the checkpoints drained no fault "
                   "transitions");
  }

  // --- Steady-state memory gates ------------------------------------------
  result.live_alloc_growth = hour2.live_allocs - hour1.live_allocs;
  result.sanitizer_growth_bytes = hour2.sanitizer_bytes - hour1.sanitizer_bytes;
  if (alloc::tracker_active() &&
      result.live_alloc_growth > kMaxLiveAllocGrowth) {
    Fail(failures,
         "soak_conference: live allocations grew by " +
             std::to_string(result.live_alloc_growth) +
             " across the steady-state interval (allowed " +
             std::to_string(kMaxLiveAllocGrowth) + ")");
  }
  if (result.sanitizer_growth_bytes > kMaxSanitizerGrowthBytes) {
    Fail(failures,
         "soak_conference: sanitizer live bytes grew by " +
             std::to_string(result.sanitizer_growth_bytes) +
             " across the steady-state interval");
  }
  if (hour2.rss_kb - hour1.rss_kb > kMaxRssGrowthKb) {
    Fail(failures, "soak_conference: RSS grew by " +
                       std::to_string(hour2.rss_kb - hour1.rss_kb) +
                       " kB across the steady-state interval");
  }
  if (result.qoe_floor < kQoeFloorMin) {
    Fail(failures, "soak_conference: checkpoint QoE floor " +
                       std::to_string(result.qoe_floor) + " below " +
                       std::to_string(kQoeFloorMin));
  }
  return result;
}

// --- Phase B: small-fleet soak --------------------------------------------

SoakResult RunFleetSoak(int checkpoints, TimeDelta period,
                        const std::string& trace_out, FailureLog& failures) {
  SoakResult result;
  result.shape = "soak_fleet";
  result.virtual_hours = checkpoints * period.seconds() / 3600.0;

  obs::MetricsRegistry registry;
  obs::MetricsStreamWriter writer(trace_out,
                                  obs::MetricsStreamWriter::Format::kJsonLines);
  service::ServiceConfig config;
  config.num_shards = 2;
  config.max_conferences = 8;
  config.solve_backlog = 4;
  config.parallel_shards = true;
  config.metrics = &registry;
  result.shards = config.num_shards;
  service::OrchestrationService service(config);

  service::ChurnConfig churn;
  churn.target_concurrent = 6;
  churn.mean_lifetime = TimeDelta::Seconds(180);
  churn.wave_period = TimeDelta::Seconds(15);
  churn.wave_fraction = 0.1;
  churn.seed = 42;
  service::ChurnStorm storm(&service, churn);

  // Shard-kill leg: one whole-shard outage mid-run — crash, gossip-driven
  // evacuation, re-home onto the survivor, restart — so the soak's memory-
  // flatness and QoE gates also cover the failure-domain path (the ASan CI
  // profile runs this too and sweeps what the evacuation leaves behind).
  const TimeDelta soak_total = period * int64_t{checkpoints};
  service.control_faults().ShardCrash(&service.shard(1),
                                      Timestamp::Zero() + soak_total * 0.3,
                                      /*duration=*/period / 2);

  const auto wall_start = std::chrono::steady_clock::now();
  MemorySample first{}, last{};
  for (int i = 0; i < checkpoints; ++i) {
    storm.RunFor(period);

    if (!writer.Flush(registry, service.Now())) {
      Fail(failures, "soak_fleet: metrics stream flush failed");
    }
    if (registry.total_samples() > registry.num_metrics() * 64) {
      Fail(failures, "soak_fleet: registry holds samples after flush");
    }
    for (int s = 0; s < service.num_shards(); ++s) {
      if (service.shard(s).queue_depth() > config.solve_backlog) {
        Fail(failures, "soak_fleet: shard " + std::to_string(s) +
                           " solve-queue backlog " +
                           std::to_string(service.shard(s).queue_depth()));
      }
    }
    const auto report = service.Report();
    if (report.completed >= 20 && report.p5_satisfaction < kQoeFloorMin) {
      Fail(failures, "soak_fleet: p5 satisfaction " +
                         std::to_string(report.p5_satisfaction) + " below " +
                         std::to_string(kQoeFloorMin));
    }
    if (report.completed >= 20) {
      result.qoe_floor = std::min(result.qoe_floor, report.p5_satisfaction);
    }

    const MemorySample mem = SampleMemory();
    result.peak_rss_kb = std::max(result.peak_rss_kb, mem.hwm_kb);
    if (i == 0) first = mem;
    last = mem;
    std::printf(
        "  [fleet %5.1f min] live=%d completed=%d live_allocs=%lld "
        "rss=%ld kB p5=%.3f\n",
        (i + 1) * period.seconds() / 60.0, report.live,
        report.completed, static_cast<long long>(mem.live_allocs), mem.rss_kb,
        report.p5_satisfaction);
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const auto report = service.Report();
  result.solves = report.solves;
  result.samples_streamed = writer.samples_flushed();
  if (!writer.Close(registry)) {
    Fail(failures, "soak_fleet: closing the metrics stream failed");
  }
  // Live conferences at a checkpoint vary in age and size, so the fleet
  // phase gates only RSS runaway; the precise allocation gate lives in
  // phase A, whose script is exactly hour-periodic.
  result.live_alloc_growth = last.live_allocs - first.live_allocs;
  result.sanitizer_growth_bytes = last.sanitizer_bytes - first.sanitizer_bytes;
  if (last.rss_kb - first.rss_kb > kMaxRssGrowthKb) {
    Fail(failures, "soak_fleet: RSS grew by " +
                       std::to_string(last.rss_kb - first.rss_kb) +
                       " kB over the storm");
  }
  // The scripted outage must have actually exercised the failover path and
  // healed: shard 1 crashed, its conferences were re-homed (or swept as
  // limbo), and the restart brought the whole fleet back.
  const auto& failover = service.failover();
  if (failover.shard_crashes < 1) {
    Fail(failures, "soak_fleet: scripted shard crash never fired");
  }
  if (failover.shard_restarts < 1) {
    Fail(failures, "soak_fleet: crashed shard never restarted");
  }
  if (failover.conferences_rehomed + failover.limbo_removed < 1) {
    Fail(failures, "soak_fleet: outage evacuated no conferences");
  }
  for (int s = 0; s < service.num_shards(); ++s) {
    if (!service.shard(s).alive()) {
      Fail(failures, "soak_fleet: shard " + std::to_string(s) +
                         " still dead at soak end");
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_soak.json";
  std::string label = "soak";
  std::string trace_out = "soak_metrics.jsonl";
  double hours = 2.0;
  bool short_run = false;
  StormKnobs knobs;  // --no-churn / --no-faults: growth-source bisection
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(6);
    } else if (arg.rfind("--label=", 0) == 0) {
      label = arg.substr(8);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else if (arg.rfind("--hours=", 0) == 0) {
      hours = std::atof(arg.c_str() + 8);
    } else if (arg == "--short") {
      short_run = true;
    } else if (arg == "--no-churn") {
      knobs.churn = false;
    } else if (arg == "--no-faults") {
      knobs.faults = false;
    } else {
      std::fprintf(stderr,
                   "usage: soak [--out=FILE] [--label=NAME] "
                   "[--trace-out=FILE] [--hours=N] [--short]\n");
      return 2;
    }
  }

  // Full run: 5-minute checkpoints; the storm script (3 fault kinds x 4
  // victims, 3 churn ids) repeats every 12 checkpoints = exactly one
  // virtual hour, so the hour-over-hour memory comparison is
  // script-aligned. Short run: 1-minute checkpoints, 10 of them, same
  // alignment at the half-run mark.
  const TimeDelta period =
      short_run ? TimeDelta::Seconds(60) : TimeDelta::Seconds(300);
  const int checkpoints =
      short_run ? 20
                : std::max(2, static_cast<int>(hours * 3600.0 /
                                               period.seconds()));
  const int fleet_checkpoints = short_run ? 5 : 6;

  std::printf("soak: %s tracker, %.2f virtual hours, %d checkpoints\n",
              alloc::tracker_active()
                  ? "native"
                  : (alloc::sanitizer_live_bytes() > 0 ? "asan" : "none"),
              checkpoints * period.seconds() / 3600.0, checkpoints);

  FailureLog failures;
  std::vector<SoakResult> results;
  results.push_back(
      RunConferenceSoak(checkpoints, period, trace_out, knobs, failures));
  results.push_back(RunFleetSoak(fleet_checkpoints, period,
                                 trace_out + ".fleet", failures));

  gso::bench::BenchJson json(label);
  for (const SoakResult& r : results) {
    const double allocs_per_vhour =
        r.virtual_hours > 0
            ? std::max<double>(0.0, r.live_alloc_growth) /
                  (r.virtual_hours / 2.0)
            : 0.0;
    json.Add(r.shape, "wall_seconds", "s", r.wall_seconds, 2);
    if (r.shards > 0) json.Add(r.shape, "shards", "count", r.shards);
    json.Add(r.shape, "solves", "count", r.solves);
    json.Add(r.shape, "virtual_hours", "h", r.virtual_hours, 3);
    json.Add(r.shape, "peak_rss_bytes", "bytes", r.peak_rss_kb * 1024);
    json.Add(r.shape, "allocs_per_vhour", "allocs/h", allocs_per_vhour);
    json.Add(r.shape, "sanitizer_growth_bytes", "bytes",
             r.sanitizer_growth_bytes);
    json.Add(r.shape, "qoe_floor", "score", r.qoe_floor, 6);
    json.Add(r.shape, "samples_streamed", "count", r.samples_streamed);
    json.Add(r.shape, "transitions_drained", "count", r.transitions_drained);
  }
  if (!json.Write(out)) return 1;
  std::printf("wrote %s\n", out.c_str());

  if (!failures.empty()) {
    std::fprintf(stderr, "soak: %zu gate(s) failed\n", failures.size());
    return 1;
  }
  std::printf("soak: all gates passed\n");
  return 0;
}
