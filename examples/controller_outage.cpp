// Controller outage + accessing-node failover: the paper's §7 "design for
// failure" arc, end to end, on one meeting.
//
// A six-party GSO meeting spread over two accessing nodes goes through
// three phases:
//  - Phase A (steady state): warm-up under GSO orchestration.
//  - Phase B (controller outage): the conference node crashes mid-meeting.
//    Clients and accessing nodes detect the GTBR / forwarding-table
//    drought via their watchdogs and degrade to local TemplatePolicy
//    selection, so media keeps flowing at Non-GSO quality. The run fails
//    unless the degraded-window framerate is at least 80% of a same-seed
//    kTemplate baseline meeting measured over the same window. On restart
//    the controller reconstructs the global picture from re-collected
//    reports, re-solves, and reclaims every degraded client.
//  - Phase C (accessing-node death): node 1 dies permanently; the
//    controller's heartbeat timeout declares it dead and its three
//    participants are re-homed onto node 0 with fresh SSRCs (no
//    collisions) and flowing media.
//
//   ./build/examples/controller_outage
//   ./build/examples/controller_outage --short --metrics-out out.jsonl
//   ./build/examples/controller_outage --bench-out BENCH_robustness.json
//
// Exits non-zero if any phase misses its recovery budget, so CI can use it
// as a robustness gate. --bench-out writes the run's figures as BENCH rows
// (bench/bench_json.h), gated against BENCH_robustness.json.
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "conference/scenarios.h"
#include "obs/export.h"
#include "sim/fault_plan.h"

using namespace gso;
using namespace gso::conference;

namespace {

constexpr int kParticipants = 6;
constexpr TimeDelta kWatchdog = TimeDelta::Seconds(4);

std::unique_ptr<Conference> BuildTwoNodeMeeting(ConferenceConfig config) {
  config.num_accessing_nodes = 2;
  config.node_watchdog = kWatchdog;
  auto conference = std::make_unique<Conference>(config);
  for (int i = 1; i <= kParticipants; ++i) {
    ParticipantConfig pc;
    pc.client = DefaultClient(static_cast<uint32_t>(i));
    pc.client.controller_watchdog = kWatchdog;
    pc.access = Access();
    pc.node_index = (i - 1) % 2;  // 1,3,5 -> node 0; 2,4,6 -> node 1
    conference->AddParticipant(pc);
  }
  conference->SubscribeAllCameras(kResolution720p);
  return conference;
}

// Sum of frames decoded across all participants of a meeting.
int64_t TotalFrames(Conference& conference) {
  int64_t total = 0;
  for (int i = 1; i <= kParticipants; ++i)
    total += conference.client(ClientId(static_cast<uint32_t>(i)))
                 ->TotalFramesDecoded();
  return total;
}

bool Check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "error: %s\n", what);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_out;
  std::string csv_out;
  std::string bench_out;
  bool short_run = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--csv-out") == 0 && i + 1 < argc) {
      csv_out = argv[++i];
    } else if (std::strcmp(argv[i], "--bench-out") == 0 && i + 1 < argc) {
      bench_out = argv[++i];
    } else if (std::strcmp(argv[i], "--short") == 0) {
      short_run = true;
    } else {
      std::fprintf(stderr,
                   "usage: controller_outage [--metrics-out FILE] "
                   "[--csv-out FILE] [--bench-out FILE] [--short]\n");
      return 2;
    }
  }
  const bool export_metrics = !metrics_out.empty() || !csv_out.empty();
  obs::MetricsRegistry registry;

  // The meeting under test, plus a fault-free same-seed kTemplate twin:
  // its framerate over the degraded window is exactly the Non-GSO quality
  // the paper says a controller outage must not drop below.
  ConferenceConfig gso_config;
  gso_config.metrics = export_metrics ? &registry : nullptr;
  auto conference = BuildTwoNodeMeeting(gso_config);
  ConferenceConfig template_config;
  template_config.mode = ControlMode::kTemplate;
  auto baseline = BuildTwoNodeMeeting(template_config);

  sim::FaultPlan plan(&conference->loop());
  if (export_metrics) plan.SetMetrics(&registry);

  conference->Start();
  baseline->Start();

  // Phase A: warm up, then measure across the whole failure sequence.
  const TimeDelta warmup =
      short_run ? TimeDelta::Seconds(6) : TimeDelta::Seconds(10);
  conference->RunFor(warmup);
  baseline->RunFor(warmup);
  conference->MarkMeasurementStart();
  baseline->MarkMeasurementStart();
  const Timestamp t0 = conference->loop().Now();

  // Phase B: controller crashes 2 s in, stays down long enough for the
  // 4 s watchdogs to fire plus a measured degraded window.
  const TimeDelta outage =
      short_run ? TimeDelta::Seconds(10) : TimeDelta::Seconds(12);
  const TimeDelta degrade_window =
      short_run ? TimeDelta::Seconds(4) : TimeDelta::Seconds(6);
  ScheduleControllerOutage(*conference, plan, t0 + TimeDelta::Seconds(2),
                           outage);

  // Run to 2 s past the watchdog deadline: every client and both nodes
  // must have entered degraded mode by then.
  const TimeDelta to_degraded = TimeDelta::Seconds(2) + kWatchdog +
                                TimeDelta::Seconds(2);
  conference->RunFor(to_degraded);
  baseline->RunFor(to_degraded);
  bool ok = Check(conference->control().crash_count() == 1,
                  "controller did not crash");
  int degraded_clients = 0;
  for (int i = 1; i <= kParticipants; ++i)
    degraded_clients +=
        conference->client(ClientId(static_cast<uint32_t>(i)))->degraded();
  ok &= Check(degraded_clients == kParticipants,
              "not all clients degraded after watchdog deadline");
  ok &= Check(conference->node(0)->degraded() && conference->node(1)->degraded(),
              "accessing nodes did not degrade after watchdog deadline");

  // Degraded-window QoE: frames decoded per second, meeting-wide, against
  // the kTemplate twin over the same virtual window.
  const int64_t gso_frames_before = TotalFrames(*conference);
  const int64_t tpl_frames_before = TotalFrames(*baseline);
  conference->RunFor(degrade_window);
  baseline->RunFor(degrade_window);
  const double gso_fps =
      static_cast<double>(TotalFrames(*conference) - gso_frames_before) /
      degrade_window.seconds();
  const double tpl_fps =
      static_cast<double>(TotalFrames(*baseline) - tpl_frames_before) /
      degrade_window.seconds();
  ok &= Check(gso_fps >= 0.8 * tpl_fps,
              "degraded-mode framerate below 80% of the Non-GSO baseline");

  // Run past the restart: reconstruction must complete, the solver must
  // run again, and every client must be reclaimed out of degraded mode.
  const TimeDelta past_restart = (t0 + TimeDelta::Seconds(2) + outage +
                                  TimeDelta::Seconds(8)) -
                                 conference->loop().Now();
  conference->RunFor(past_restart);
  baseline->RunFor(past_restart);
  ok &= Check(conference->control().restart_count() == 1,
              "controller did not restart");
  ok &= Check(!conference->control().reconstructing(),
              "reconstruction still pending 8 s after restart");
  ok &= Check(conference->control().last_reconstruction_latency() <=
                  kReconstructTimeout,
              "reconstruction exceeded its deadline");
  ok &= Check(conference->control().resolves_after_restart() >= 1,
              "no re-solve after restart");
  int reclaimed = 0;
  for (int i = 1; i <= kParticipants; ++i)
    reclaimed +=
        !conference->client(ClientId(static_cast<uint32_t>(i)))->degraded();
  ok &= Check(reclaimed == kParticipants,
              "clients still degraded after controller restart");

  // Phase C: accessing node 1 (homing participants 2, 4, 6) dies for good.
  const Timestamp t1 = conference->loop().Now() + TimeDelta::Seconds(2);
  ScheduleAccessingNodeDeath(*conference, plan, /*node_index=*/1, t1);
  const TimeDelta to_failover = (t1 + TimeDelta::Seconds(3)) -
                                conference->loop().Now();
  conference->RunFor(to_failover);
  baseline->RunFor(to_failover);
  ok &= Check(conference->control().node_failover_count() == 1,
              "dead accessing node was not detected");
  ok &= Check(conference->control().rehomed_count() == kParticipants / 2,
              "not every victim participant was re-homed");

  // No SSRC may be shared between any two members after re-allocation.
  std::set<Ssrc> all_ssrcs;
  size_t ssrc_count = 0;
  for (int i = 1; i <= kParticipants; ++i) {
    const auto ssrcs =
        conference->control().MemberSsrcs(ClientId(static_cast<uint32_t>(i)));
    ssrc_count += ssrcs.size();
    all_ssrcs.insert(ssrcs.begin(), ssrcs.end());
  }
  ok &= Check(all_ssrcs.size() == ssrc_count,
              "SSRC collision after failover re-allocation");

  // Media must flow again for everyone via the surviving node.
  const int64_t frames_before_recovery = TotalFrames(*conference);
  const TimeDelta recovery =
      short_run ? TimeDelta::Seconds(6) : TimeDelta::Seconds(8);
  conference->RunFor(recovery);
  baseline->RunFor(recovery);
  const double recovered_fps =
      static_cast<double>(TotalFrames(*conference) - frames_before_recovery) /
      recovery.seconds();
  ok &= Check(recovered_fps > 0.5 * tpl_fps,
              "media did not recover after accessing-node failover");

  // Convergence: the pending-config set must drain shortly after.
  TimeDelta settle = TimeDelta::Zero();
  while (conference->control().pending_config_count() != 0 &&
         settle < TimeDelta::Seconds(10)) {
    conference->RunFor(TimeDelta::Millis(200));
    settle += TimeDelta::Millis(200);
  }
  ok &= Check(conference->control().pending_config_count() == 0,
              "control plane did not re-converge after the failure suite");

  const auto report = conference->Report();
  std::printf("controller_outage: %zu participants at end\n",
              report.participants.size());
  std::printf("  degraded fps        %5.1f (baseline %5.1f, floor %5.1f)\n",
              gso_fps, tpl_fps, 0.8 * tpl_fps);
  std::printf("  reconstruction      %.0f ms (budget %.0f ms)\n",
              conference->control().last_reconstruction_latency().seconds() * 1e3,
              kReconstructTimeout.seconds() * 1e3);
  std::printf("  resolves postcrash  %d\n",
              conference->control().resolves_after_restart());
  std::printf("  re-homed            %d participants (%d failovers)\n",
              conference->control().rehomed_count(),
              conference->control().node_failover_count());
  std::printf("  recovered fps       %5.1f\n", recovered_fps);
  std::printf("  mean framerate      %5.1f fps, stalls %4.1f%%\n",
              report.mean_framerate, 100 * report.mean_video_stall_rate);

  if (!bench_out.empty()) {
    const auto& control = conference->control();
    gso::bench::BenchJson json("robustness");
    const std::string name = "controller_outage";
    json.Add(name, "crashes", "count", control.crash_count());
    json.Add(name, "restarts", "count", control.restart_count());
    json.Add(name, "reconstruction_latency_ms", "ms",
             control.last_reconstruction_latency().seconds() * 1e3, 3);
    json.Add(name, "resolves_after_restart", "count",
             control.resolves_after_restart());
    json.Add(name, "degraded_fps", "fps", gso_fps, 3);
    json.Add(name, "baseline_fps", "fps", tpl_fps, 3);
    json.Add(name, "recovered_fps", "fps", recovered_fps, 3);
    json.Add(name, "rehomed_participants", "count", control.rehomed_count());
    json.Add(name, "node_failovers", "count", control.node_failover_count());
    json.Add(name, "mean_framerate", "fps", report.mean_framerate, 3);
    json.Add(name, "mean_video_stall_rate", "ratio",
             report.mean_video_stall_rate, 5);
    if (!json.Write(bench_out)) return 1;
    std::printf("wrote %s\n", bench_out.c_str());
  }
  if (!metrics_out.empty()) {
    if (!obs::WriteFile(metrics_out, obs::ToJsonLines(registry))) return 1;
    std::printf("wrote %zu series / %zu samples to %s\n",
                registry.num_metrics(), registry.total_samples(),
                metrics_out.c_str());
  }
  if (!csv_out.empty()) {
    if (!obs::WriteFile(csv_out, obs::ToCsv(registry))) return 1;
    std::printf("wrote CSV to %s\n", csv_out.c_str());
  }
  return ok ? 0 : 1;
}
