// meeting_mesh: one standalone 8-party conference on 2 accessing nodes with
// a full 720p camera mesh. The packet path (sim links, SFU forwarding,
// transport, media) does almost all the work; the controller is a few
// percent of wall time and the service layer is not used.
#include <algorithm>
#include <memory>
#include <vector>

#include "bench.h"
#include "common/alloc_tracker.h"
#include "common/rng.h"
#include "conference/conference.h"
#include "conference/scenarios.h"
#include "obs/metrics.h"

namespace gso::perfbench {
namespace {

using conference::Conference;

constexpr int kParticipants = 8;
// BWE ramp-up excluded from the timed phase (counted in setup_s).
constexpr TimeDelta kRampUp = TimeDelta::Seconds(20);
// One step is one virtual second, run as five 200 ms sub-steps so that
// every controller solve (at most one per controller tick) is observed.
constexpr TimeDelta kSubStep = TimeDelta::Millis(200);
constexpr int kSubStepsPerStep = 5;
// Checked span: the first 60 virtual seconds after ramp-up. Quality, stall
// and every count are taken over it, so they repeat exactly for a seed.
constexpr int kCheckedSteps = 60;

struct MeetingPlan {
  std::vector<sim::DuplexLinkConfig> links;
  // Downlink capacity steps on participant 1: (virtual second after
  // ramp-up, new capacity). Forces re-solves and SFU layer switches.
  std::vector<std::pair<int, DataRate>> capacity_steps;
};

// All inputs come from the seed. Link capacities are fixed so that the
// work per virtual second varies little from seed to seed; the seed draws
// delays, jitter, the loss processes and the capacity-step schedule.
MeetingPlan MakePlan(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 101);
  MeetingPlan plan;
  for (int i = 0; i < 4; ++i) {  // clean
    plan.links.push_back(conference::Access(
        DataRate::MegabitsPerSec(10), DataRate::MegabitsPerSec(20),
        TimeDelta::Millis(rng.UniformInt(15, 30))));
  }
  for (int i = 0; i < 2; ++i) {  // Gilbert-Elliott lossy, 3.5 Mbps
    const double bad = rng.Uniform(0.02, 0.04);
    plan.links.push_back(
        sim::DuplexLinkConfig::Symmetric(sim::LinkConfig::Lossy(
            DataRate::KilobitsPerSec(3500), bad,
            TimeDelta::Millis(rng.UniformInt(30, 50)))));
  }
  for (int i = 0; i < 2; ++i) {  // jittery wifi with a 2 Mbps uplink
    sim::LinkConfig up = sim::LinkConfig::Wifi(DataRate::MegabitsPerSec(2));
    sim::LinkConfig down = sim::LinkConfig::Wifi(DataRate::MegabitsPerSec(15));
    up.jitter_stddev = down.jitter_stddev =
        TimeDelta::Millis(rng.UniformInt(4, 8));
    plan.links.push_back({up, down});
  }
  const int kRates[] = {1200, 2500, 5000, 20000};
  int at = 0;
  for (;;) {
    at += static_cast<int>(rng.UniformInt(6, 10));
    if (at > 100000) break;
    plan.capacity_steps.emplace_back(
        at, DataRate::KilobitsPerSec(kRates[rng.UniformInt(0, 3)]));
  }
  return plan;
}

std::unique_ptr<Conference> BuildAndRamp(uint64_t seed,
                                         const MeetingPlan& plan,
                                         obs::MetricsRegistry* registry) {
  conference::ConferenceConfig config;
  config.num_accessing_nodes = 2;
  config.seed = seed;
  config.metrics = registry;
  auto meeting = std::make_unique<Conference>(config);
  for (int i = 1; i <= kParticipants; ++i) {
    conference::ParticipantConfig pc;
    pc.client = conference::DefaultClient(static_cast<uint32_t>(i));
    pc.access = plan.links[static_cast<size_t>(i - 1)];
    pc.node_index = (i - 1) % 2;
    meeting->AddParticipant(pc);
  }
  meeting->SubscribeAllCameras(kResolution720p);
  meeting->Start();
  meeting->RunFor(kRampUp);
  meeting->MarkMeasurementStart();
  return meeting;
}

// Counters read from outside the program: link stats, client and node
// getters. Sums over all access links and the inter-node backbone.
struct Tally {
  int64_t link_sent = 0;
  int64_t link_dropped = 0;
  int64_t downlink_sent = 0;  // SFU -> subscriber packets
  int64_t frames_decoded = 0;
  int64_t frames_dropped = 0;
  int solves = 0;
  int gtbr_retries = 0;
  int gtbr_timeouts = 0;
};

void AddLink(const sim::Link* link, Tally* tally) {
  if (link == nullptr) return;
  const sim::LinkStats& s = link->stats();
  tally->link_sent += s.packets_sent;
  tally->link_dropped += s.packets_dropped_queue + s.packets_dropped_loss +
                         s.packets_dropped_down;
}

Tally Count(Conference& meeting) {
  Tally tally;
  for (const ClientId id : meeting.member_ids()) {
    AddLink(meeting.uplink(id), &tally);
    AddLink(meeting.downlink(id), &tally);
    tally.downlink_sent += meeting.downlink(id)->stats().packets_sent;
    tally.frames_decoded += meeting.client(id)->TotalFramesDecoded();
    tally.frames_dropped += meeting.client(id)->TotalFramesDropped();
  }
  AddLink(meeting.inter_node_link(0, 1), &tally);
  AddLink(meeting.inter_node_link(1, 0), &tally);
  tally.solves = meeting.control().orchestration_count();
  tally.gtbr_retries = meeting.control().gtbr_retries();
  tally.gtbr_timeouts = meeting.control().gtbr_timeouts();
  return tally;
}

double SumSeriesSince(const obs::MetricsRegistry& registry,
                      const std::string& name, Timestamp since) {
  double sum = 0.0;
  for (const auto& metric : registry.metrics()) {
    if (metric->name() != name) continue;
    for (const obs::Sample& sample : metric->samples()) {
      if (sample.time >= since) sum += sample.value;
    }
  }
  return sum;
}

}  // namespace

Result RunMeetingMesh(const Options& options) {
  Result result;
  const MeetingPlan plan = MakePlan(options.seed);
  const bool traced = options.traced;

  std::vector<double> setup_s;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<Conference> meeting;
  for (int i = 0; i < kSetupRepeats; ++i) {
    meeting.reset();
    registry.reset();
    if (traced) registry = std::make_unique<obs::MetricsRegistry>();
    const auto start = Clock::now();
    meeting = BuildAndRamp(options.seed, plan, registry.get());
    setup_s.push_back(SecondsSince(start));
  }

  conference::ParticipantHandle victim = meeting->participant(ClientId(1));
  size_t next_capacity_step = 0;
  const Timestamp timed_start = meeting->loop().Now();
  const Tally at_start = Count(*meeting);
  const int64_t allocs_at_start = alloc::total_allocations();

  std::vector<double> step_ms;
  std::vector<double> solve_ms;
  size_t pending_max = 0;
  size_t nack_max = 0;
  size_t pacer_max = 0;
  double bwe_kbps_sum = 0.0;
  int64_t bwe_samples = 0;
  Tally at_checked;
  double timed_wall_s = 0.0;
  const auto timed_begin = Clock::now();

  for (int step = 0;; ++step) {
    if (step >= kCheckedSteps && step_ms.size() >= MinSamplesFor(90) &&
        solve_ms.size() >= MinSamplesFor(90) &&
        SecondsSince(timed_begin) >= options.seconds) {
      break;
    }
    if (next_capacity_step < plan.capacity_steps.size() &&
        plan.capacity_steps[next_capacity_step].first <= step) {
      victim.SetDownlinkCapacity(plan.capacity_steps[next_capacity_step].second);
      ++next_capacity_step;
    }
    double wall_ms = 0.0;
    for (int sub = 0; sub < kSubStepsPerStep; ++sub) {
      const int solves_before = meeting->control().orchestration_count();
      const auto begin = Clock::now();
      meeting->RunFor(kSubStep);
      wall_ms += SecondsSince(begin) * 1e3;
      if (meeting->control().orchestration_count() != solves_before) {
        solve_ms.push_back(
            meeting->control().last_solution().stats.total_wall_us / 1e3);
      }
    }
    step_ms.push_back(wall_ms);
    timed_wall_s += wall_ms / 1e3;

    if (traced && step < kCheckedSteps) {
      pending_max = std::max(pending_max, meeting->loop().pending_events());
      size_t nack = 0;
      for (int n = 0; n < 2; ++n) nack += meeting->node(n)->table_sizes().nack_entries;
      nack_max = std::max(nack_max, nack);
      for (const ClientId id : meeting->member_ids()) {
        const conference::Client* client = meeting->client(id);
        pacer_max = std::max(pacer_max, client->pacer().queue_size());
        bwe_kbps_sum += client->uplink_estimate().kbps();
        ++bwe_samples;
      }
    }
    if (step + 1 == kCheckedSteps) {
      at_checked = Count(*meeting);
      const conference::MeetingReport report = meeting->Report();
      result.checks["mean_quality"] = report.mean_quality;
      result.checks["video_stall_rate"] = report.mean_video_stall_rate;
      result.checks["gtbr_timeouts"] = at_checked.gtbr_timeouts;
      result.checks["solves"] = at_checked.solves - at_start.solves;
      result.checks["downlink_packets"] =
          static_cast<double>(at_checked.downlink_sent - at_start.downlink_sent);
    }
  }
  const Tally at_end = Count(*meeting);
  const int64_t allocs = alloc::total_allocations() - allocs_at_start;

  // A solve fails when a GTBR it sent timed out. Invariants: the meeting
  // carries watchable video (the quality proxy is VMAF-like, 0-100).
  const int solves = at_checked.solves - at_start.solves;
  const int timeouts = at_checked.gtbr_timeouts - at_start.gtbr_timeouts;
  result.attempted = static_cast<uint64_t>(std::max(solves, 1));
  result.failed = static_cast<uint64_t>(timeouts);
  if (!(result.checks["mean_quality"] > 20.0)) {
    result.Fail("meeting_mesh: mean quality collapsed");
  }
  if (at_checked.frames_decoded <= at_start.frames_decoded) {
    result.Fail("meeting_mesh: no frames decoded in the checked span");
  }

  const double step_p50 = Median(step_ms);
  const double participant_s_per_step =
      kParticipants * kSubStep.seconds() * kSubStepsPerStep;
  result.Report("setup_s", Median(setup_s), "s", setup_s.size());
  result.Report("step_p50_ms", step_p50, "ms", step_ms.size());
  result.Report("sim_speed", participant_s_per_step / (step_p50 / 1e3),
                "participant-s/s", step_ms.size());
  result.Report("mean_quality", result.checks["mean_quality"], "score");
  result.Report("video_stall_rate", result.checks["video_stall_rate"],
                "ratio");
  result.Report("failed_ratio",
                static_cast<double>(result.failed) /
                    static_cast<double>(result.attempted),
                "ratio", result.attempted);

  if (!traced) {
    result.Set("setup_s", Median(setup_s), "s", setup_s.size());
    result.Set("step_p50_ms", step_p50, "ms", step_ms.size());
    result.Set("step_p90_ms", Percentile(step_ms, 90), "ms", step_ms.size());
    result.Set("solve_p50_ms", Median(solve_ms), "ms", solve_ms.size());
    result.Set("solve_p90_ms", Percentile(solve_ms, 90), "ms", solve_ms.size());
    result.Set("qoe", result.checks["mean_quality"], "score");
    return result;
  }

  const double forwarded =
      static_cast<double>(at_end.downlink_sent - at_start.downlink_sent);
  const double controller_wall_s =
      SumSeriesSince(*registry, "control.solve.wall", timed_start) / 1e6;
  result.Set("sim.link.packets_sent",
             static_cast<double>(at_checked.link_sent - at_start.link_sent),
             "count");
  result.Set("sim.link.dropped",
             static_cast<double>(at_checked.link_dropped - at_start.link_dropped),
             "count");
  result.Set("sim.loop.pending_events_max", static_cast<double>(pending_max),
             "count");
  result.Set("sfu.packets_forwarded", result.checks["downlink_packets"],
             "count");
  result.Set("sfu.nack_entries_max", static_cast<double>(nack_max), "count");
  result.Set("sfu.wall_ns_per_forwarded_packet",
             (timed_wall_s - controller_wall_s) * 1e9 / forwarded, "ns");
  result.Set("sfu.allocs_per_forwarded_packet",
             static_cast<double>(allocs) / forwarded, "count");
  result.Set("transport.pacer_queue_max", static_cast<double>(pacer_max),
             "count");
  result.Set("transport.bwe_target_kbps_mean",
             bwe_kbps_sum / static_cast<double>(std::max<int64_t>(bwe_samples, 1)),
             "kbps");
  result.Set("media.frames_decoded",
             static_cast<double>(at_checked.frames_decoded -
                                 at_start.frames_decoded),
             "count");
  result.Set("media.frames_dropped",
             static_cast<double>(at_checked.frames_dropped -
                                 at_start.frames_dropped),
             "count");
  result.Set("control.solves", static_cast<double>(solves), "count");
  result.Set("control.gtbr_retries",
             static_cast<double>(at_checked.gtbr_retries - at_start.gtbr_retries),
             "count");
  result.Set("control.gtbr_timeouts", static_cast<double>(timeouts), "count");
  result.Set("control.solve_wall_share", controller_wall_s / timed_wall_s,
             "ratio");
  // The timed phase splits into controller wall and the rest, which the
  // SFU-attributed per-packet figure divides by packets forwarded.
  result.Report("timed_wall_s", timed_wall_s, "s");
  result.Report("controller_wall_s", controller_wall_s, "s");
  result.Report("sfu_attributed_wall_s", timed_wall_s - controller_wall_s, "s");
  return result;
}

}  // namespace gso::perfbench
