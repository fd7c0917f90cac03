// Node-failure robustness: controller crash/restart with global-picture
// reconstruction, degraded-mode fallback at clients and accessing nodes,
// accessing-node failover with SSRC re-allocation, and determinism of the
// whole arc under a fixed seed + fault plan.
#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "conference/scenarios.h"
#include "sim/fault_plan.h"

namespace gso::conference {
namespace {

constexpr TimeDelta kShortWatchdog = TimeDelta::Seconds(2);

// A meeting with watchdogs shortened so degraded-mode transitions happen
// inside test-sized run windows.
std::unique_ptr<Conference> BuildRobustMeeting(int participants,
                                               int accessing_nodes,
                                               uint64_t seed = 1) {
  ConferenceConfig config;
  config.num_accessing_nodes = accessing_nodes;
  config.node_watchdog = kShortWatchdog;
  config.seed = seed;
  auto conference = std::make_unique<Conference>(config);
  for (int i = 1; i <= participants; ++i) {
    ParticipantConfig pc;
    pc.client = DefaultClient(static_cast<uint32_t>(i));
    pc.client.controller_watchdog = kShortWatchdog;
    pc.access = Access();
    pc.node_index = (i - 1) % accessing_nodes;
    conference->AddParticipant(pc);
  }
  conference->SubscribeAllCameras(kResolution720p);
  return conference;
}

int64_t TotalFrames(Conference& conference, int participants) {
  int64_t total = 0;
  for (int i = 1; i <= participants; ++i)
    total += conference.client(ClientId(static_cast<uint32_t>(i)))
                 ->TotalFramesDecoded();
  return total;
}

bool PendingConfigsDrain(Conference& conference,
                         TimeDelta budget = TimeDelta::Seconds(10)) {
  TimeDelta settle = TimeDelta::Zero();
  while (conference.control().pending_config_count() != 0 &&
         settle < budget) {
    conference.RunFor(TimeDelta::Millis(200));
    settle += TimeDelta::Millis(200);
  }
  return conference.control().pending_config_count() == 0;
}

// While the controller is dead, every client and accessing node must
// detect the control drought via its watchdog, fall back to TemplatePolicy
// selection, and keep media flowing.
TEST(Robustness, ControllerCrashDegradesEveryoneButMediaFlows) {
  auto conference = BuildRobustMeeting(4, 1);
  sim::FaultPlan plan(&conference->loop());
  conference->Start();
  conference->RunFor(TimeDelta::Seconds(6));
  const Timestamp t0 = conference->loop().Now();
  plan.NodeCrash(&conference->control(), t0 + TimeDelta::Seconds(1));

  // 1 s to the crash + 2 s watchdog + 1 s of policy-tick slack.
  conference->RunFor(TimeDelta::Seconds(4));
  EXPECT_EQ(conference->control().crash_count(), 1);
  EXPECT_FALSE(conference->control().alive());
  for (int i = 1; i <= 4; ++i) {
    const Client* client = conference->client(ClientId(static_cast<uint32_t>(i)));
    EXPECT_TRUE(client->degraded()) << "client " << i;
    EXPECT_GE(client->degraded_entries(), 1) << "client " << i;
  }
  EXPECT_TRUE(conference->node(0)->degraded());

  // Media keeps flowing at Non-GSO quality: frames still advance.
  const int64_t before = TotalFrames(*conference, 4);
  conference->RunFor(TimeDelta::Seconds(4));
  const int64_t delta = TotalFrames(*conference, 4) - before;
  // 4 subscribers x 3 views x 25 fps x 4 s = 1200 frames at full rate;
  // degraded mode must deliver a solid fraction of that, not a trickle.
  EXPECT_GT(delta, 600) << "degraded-mode media stalled";
}

// Restart reconstructs the global picture from re-collected reports, bumps
// the solve epoch, re-solves, and reclaims every degraded client.
TEST(Robustness, RestartReconstructsReclaimsAndBumpsEpoch) {
  auto conference = BuildRobustMeeting(4, 1);
  sim::FaultPlan plan(&conference->loop());
  conference->Start();
  conference->RunFor(TimeDelta::Seconds(6));
  const uint32_t epoch_before = conference->control().solve_epoch();
  const Timestamp t0 = conference->loop().Now();
  ScheduleControllerOutage(*conference, plan, t0 + TimeDelta::Seconds(1),
                           TimeDelta::Seconds(5));

  // Deep into the outage everyone is degraded.
  conference->RunFor(TimeDelta::Seconds(5));
  for (int i = 1; i <= 4; ++i)
    EXPECT_TRUE(
        conference->client(ClientId(static_cast<uint32_t>(i)))->degraded());

  // Past the restart plus the reconstruction deadline plus one GTBR round.
  conference->RunFor(TimeDelta::Seconds(6));
  EXPECT_EQ(conference->control().restart_count(), 1);
  EXPECT_FALSE(conference->control().reconstructing());
  EXPECT_GT(conference->control().solve_epoch(), epoch_before);
  EXPECT_GT(conference->control().last_reconstruction_latency(),
            TimeDelta::Zero());
  EXPECT_LE(conference->control().last_reconstruction_latency(),
            kReconstructTimeout);
  EXPECT_GE(conference->control().resolves_after_restart(), 1);
  for (int i = 1; i <= 4; ++i) {
    const Client* client = conference->client(ClientId(static_cast<uint32_t>(i)));
    EXPECT_FALSE(client->degraded()) << "client " << i << " not reclaimed";
    EXPECT_GT(client->TimeInDegraded(conference->loop().Now()),
              TimeDelta::Zero());
  }
  EXPECT_TRUE(PendingConfigsDrain(*conference));
}

// Re-solve damping: the burst of fresh reports arriving as clients leave
// degraded mode must not fan out into a re-solve storm. Within the damped
// post-restart window only the reconstruction solve plus time-triggered
// runs may happen.
TEST(Robustness, RestartDampingBoundsResolveStorm) {
  auto conference = BuildRobustMeeting(4, 1);
  sim::FaultPlan plan(&conference->loop());
  conference->Start();
  conference->RunFor(TimeDelta::Seconds(6));
  const Timestamp t0 = conference->loop().Now();
  ScheduleControllerOutage(*conference, plan, t0 + TimeDelta::Seconds(1),
                           TimeDelta::Seconds(5));
  // Run to well past restart + damping (5 s) so the window has closed.
  conference->RunFor(TimeDelta::Seconds(14));
  const int resolves = conference->control().resolves_after_restart();
  EXPECT_GE(resolves, 1);
  // Reconstruction solve + at most ceil(damping / max interval) time
  // triggers; event triggers are suppressed inside the window.
  const auto budget =
      1 + static_cast<int>(kRestartDamping / kMaxCallInterval) + 1;
  EXPECT_LE(resolves, budget) << "re-solve storm after restart";
}

// Accessing-node death: the controller's heartbeat timeout declares the
// node dead and the harness re-homes its participants onto a survivor with
// fresh SSRCs, no collisions, and flowing media.
TEST(Robustness, NodeDeathRehomesParticipantsWithFreshSsrcs) {
  auto conference = BuildRobustMeeting(4, 2);
  sim::FaultPlan plan(&conference->loop());
  conference->Start();
  conference->RunFor(TimeDelta::Seconds(6));

  // Participants 2 and 4 are homed on node 1.
  std::set<Ssrc> old_victim_ssrcs;
  for (uint32_t id : {2u, 4u}) {
    const auto ssrcs = conference->control().MemberSsrcs(ClientId(id));
    ASSERT_FALSE(ssrcs.empty());
    old_victim_ssrcs.insert(ssrcs.begin(), ssrcs.end());
  }

  const Timestamp t0 = conference->loop().Now();
  ScheduleAccessingNodeDeath(*conference, plan, /*node_index=*/1,
                             t0 + TimeDelta::Seconds(1));
  conference->RunFor(TimeDelta::Seconds(4));

  EXPECT_FALSE(conference->node(1)->alive());
  EXPECT_EQ(conference->control().node_failover_count(), 1);
  EXPECT_EQ(conference->control().rehomed_count(), 2);

  // Fresh SSRCs: nothing from before the failover may be reissued, and no
  // two members may share an SSRC afterwards.
  std::set<Ssrc> all;
  size_t total = 0;
  for (uint32_t id : {1u, 2u, 3u, 4u}) {
    const auto ssrcs = conference->control().MemberSsrcs(ClientId(id));
    total += ssrcs.size();
    all.insert(ssrcs.begin(), ssrcs.end());
  }
  EXPECT_EQ(all.size(), total) << "SSRC collision after failover";
  for (uint32_t id : {2u, 4u}) {
    for (Ssrc ssrc : conference->control().MemberSsrcs(ClientId(id))) {
      EXPECT_FALSE(old_victim_ssrcs.count(ssrc))
          << "SSRC " << ssrc.value() << " reissued to client " << id;
    }
  }

  // Media flows again for everyone through the surviving node.
  conference->RunFor(TimeDelta::Seconds(4));
  conference->MarkMeasurementStart();
  conference->RunFor(TimeDelta::Seconds(8));
  const auto report = conference->Report();
  ASSERT_EQ(report.participants.size(), 4u);
  for (const auto& participant : report.participants) {
    EXPECT_GT(participant.mean_framerate, 10.0) << participant.id.ToString();
  }
  EXPECT_TRUE(PendingConfigsDrain(*conference));
}

// After a failover the survivor's downlink sender numbers the transport-
// wide sequence from zero. Each victim's feedback must start afresh with
// it: a builder left at the dead node's position unwraps every new packet
// below its report window and drops it as late, so no feedback flows and
// the survivor's estimate of the victim's downlink stays at its 500 kbps
// start rate.
TEST(Robustness, RehomedClientsFeedTheSurvivorsDownlinkEstimate) {
  auto conference = BuildRobustMeeting(4, 2);
  sim::FaultPlan plan(&conference->loop());
  conference->Start();
  conference->RunFor(TimeDelta::Seconds(6));
  ScheduleAccessingNodeDeath(*conference, plan, /*node_index=*/1,
                             conference->loop().Now() + TimeDelta::Seconds(1));
  for (int step = 0;
       step < 100 && conference->control().node_failover_count() == 0;
       ++step) {
    conference->RunFor(TimeDelta::Millis(100));
  }
  ASSERT_EQ(conference->control().node_failover_count(), 1);
  conference->RunFor(TimeDelta::Seconds(5));
  for (uint32_t id : {2u, 4u}) {  // homed on node 1 until it died
    EXPECT_GT(conference->node(0)->DownlinkEstimate(ClientId(id)),
              DataRate::KilobitsPerSec(500))
        << "client " << id;
  }
}

// Satellite: across leave/re-join churn and a node failover, the
// controller never hands out an SSRC that any earlier generation used —
// in-flight closures and surviving forwarding tables can therefore never
// alias a new stream. (The allocator is monotonic; this pins the
// system-level property.)
TEST(Robustness, ChurnAndFailoverNeverReissueSsrcs) {
  auto conference = BuildRobustMeeting(4, 2);
  sim::FaultPlan plan(&conference->loop());
  conference->Start();
  conference->RunFor(TimeDelta::Seconds(4));

  std::set<Ssrc> ever_issued;
  size_t issued_count = 0;
  auto harvest = [&](ClientId id) {
    const auto ssrcs = conference->control().MemberSsrcs(id);
    EXPECT_FALSE(ssrcs.empty()) << "no streams for " << id.ToString();
    for (Ssrc ssrc : ssrcs) {
      EXPECT_TRUE(ever_issued.insert(ssrc).second)
          << "SSRC " << ssrc.value() << " reissued to " << id.ToString();
      ++issued_count;
    }
  };
  for (uint32_t id : {1u, 2u, 3u, 4u}) harvest(ClientId(id));

  // Three leave + re-join cycles: each joiner's allocation must be
  // disjoint from every SSRC ever seen, not just the currently-live set.
  uint32_t next_id = 5;
  for (int cycle = 0; cycle < 3; ++cycle) {
    // First cycle removes an original member; later ones the prior joiner.
    conference->RemoveParticipant(cycle == 0 ? ClientId(2)
                                             : ClientId(next_id - 1));
    conference->RunFor(TimeDelta::Seconds(1));
    ParticipantConfig pc;
    pc.client = DefaultClient(next_id);
    pc.client.controller_watchdog = kShortWatchdog;
    pc.access = Access();
    pc.node_index = 1;
    conference->AddParticipant(pc);
    conference->SubscribeAllCameras(kResolution720p);
    harvest(ClientId(next_id));
    ++next_id;
    conference->RunFor(TimeDelta::Seconds(2));
  }

  // Node 1 dies; its participants (including the last joiner) re-home and
  // re-allocate — again with never-seen SSRCs.
  const Timestamp t0 = conference->loop().Now();
  ScheduleAccessingNodeDeath(*conference, plan, /*node_index=*/1,
                             t0 + TimeDelta::Seconds(1));
  conference->RunFor(TimeDelta::Seconds(4));
  EXPECT_GE(conference->control().rehomed_count(), 1);
  std::set<Ssrc> live;
  size_t live_count = 0;
  for (uint32_t id : {1u, 3u, 4u, next_id - 1}) {
    const auto ssrcs = conference->control().MemberSsrcs(ClientId(id));
    live_count += ssrcs.size();
    live.insert(ssrcs.begin(), ssrcs.end());
    for (Ssrc ssrc : ssrcs) {
      // Either a surviving pre-failover grant (still in ever_issued) or a
      // fresh one; fresh ones must not collide with anything ever issued
      // by an *earlier* generation of a different client.
      EXPECT_EQ(live.count(ssrc), 1u);
    }
  }
  EXPECT_EQ(live.size(), live_count) << "SSRC collision among live members";
  EXPECT_TRUE(PendingConfigsDrain(*conference));
}

// Same seed + same fault plan (controller outage + permanent node death)
// => bit-identical meeting report.
MeetingReport RunCrashMeeting() {
  auto conference = BuildRobustMeeting(4, 2, /*seed=*/11);
  sim::FaultPlan plan(&conference->loop());
  conference->Start();
  conference->RunFor(TimeDelta::Seconds(5));
  conference->MarkMeasurementStart();
  const Timestamp t0 = conference->loop().Now();
  ScheduleControllerOutage(*conference, plan, t0 + TimeDelta::Seconds(1),
                           TimeDelta::Seconds(4));
  ScheduleAccessingNodeDeath(*conference, plan, /*node_index=*/1,
                             t0 + TimeDelta::Seconds(9));
  conference->RunFor(TimeDelta::Seconds(16));
  EXPECT_EQ(conference->control().crash_count(), 1);
  EXPECT_EQ(conference->control().node_failover_count(), 1);
  return conference->Report();
}

TEST(Robustness, SameSeedAndFaultPlanGiveIdenticalReports) {
  const MeetingReport a = RunCrashMeeting();
  const MeetingReport b = RunCrashMeeting();
  ASSERT_EQ(a.participants.size(), b.participants.size());
  EXPECT_EQ(a.mean_video_stall_rate, b.mean_video_stall_rate);
  EXPECT_EQ(a.mean_voice_stall_rate, b.mean_voice_stall_rate);
  EXPECT_EQ(a.mean_framerate, b.mean_framerate);
  EXPECT_EQ(a.mean_quality, b.mean_quality);
  for (size_t i = 0; i < a.participants.size(); ++i) {
    EXPECT_EQ(a.participants[i].id, b.participants[i].id);
    EXPECT_EQ(a.participants[i].mean_framerate,
              b.participants[i].mean_framerate);
    EXPECT_EQ(a.participants[i].mean_video_stall_rate,
              b.participants[i].mean_video_stall_rate);
    EXPECT_EQ(a.participants[i].mean_quality, b.participants[i].mean_quality);
  }
}

}  // namespace
}  // namespace gso::conference
