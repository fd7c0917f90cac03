// Control-plane tests: SDP join flow, SSRC/directory bookkeeping,
// controller trigger logic, speaker/screen priorities, GTBR reliability,
// and server-side fallback.
#include <gtest/gtest.h>

#include "conference/scenarios.h"

namespace gso::conference {
namespace {

TEST(ControlPlane, JoinRegistersLayersAndAudioInDirectory) {
  ConferenceConfig config;
  auto conference = BuildMeeting(config, 2);
  const auto* directory = conference->control().directory();
  const auto layers =
      directory->LayersOf(ClientId(1), core::SourceKind::kCamera);
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_EQ(layers[0].resolution, kResolution720p);
  EXPECT_EQ(layers[1].resolution, kResolution360p);
  EXPECT_EQ(layers[2].resolution, kResolution180p);
  // Each layer has a unique SSRC and an owner lookup.
  EXPECT_NE(layers[0].ssrc, layers[1].ssrc);
  const auto info = directory->Lookup(layers[0].ssrc);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->owner, ClientId(1));
  EXPECT_FALSE(info->is_audio);
}

TEST(ControlPlane, LeaveUnregistersStreams) {
  ConferenceConfig config;
  auto conference = BuildMeeting(config, 2);
  auto* directory = conference->control().directory();
  const auto layers =
      directory->LayersOf(ClientId(1), core::SourceKind::kCamera);
  conference->control().Leave(ClientId(1));
  EXPECT_FALSE(directory->Lookup(layers[0].ssrc).has_value());
  EXPECT_TRUE(
      directory->LayersOf(ClientId(1), core::SourceKind::kCamera).empty());
}

TEST(ControlPlane, BandwidthReportsFlowIntoProblem) {
  ConferenceConfig config;
  auto conference = BuildMeeting(config, 2);
  conference->control().OnSembReport(ClientId(1),
                                     DataRate::MegabitsPerSec(3));
  conference->control().OnDownlinkReport(ClientId(1),
                                         DataRate::MegabitsPerSec(4));
  conference->control().OrchestrateNow();
  const auto& problem = conference->control().last_problem();
  bool found = false;
  for (const auto& budget : problem.budgets) {
    if (budget.client == ClientId(1)) {
      found = true;
      // 3 Mbps * 0.95 utilization - 40 kbps audio protection.
      EXPECT_NEAR(budget.uplink.kbps(), 3000 * 0.95 - 40, 1.0);
      EXPECT_NEAR(budget.downlink.kbps(), 4000 * 0.95 - 40, 1.0);
    }
  }
  EXPECT_TRUE(found);
}

// A report older than the controller's 10 s age limit counts as absent:
// the member's budget falls back to its join-time default until a fresh
// report arrives.
TEST(ControlPlane, StaleReportsAgeOutToJoinTimeBudget) {
  ConferenceConfig config;
  auto conference = BuildMeeting(config, 2);
  ConferenceNode& control = conference->control();
  const auto budget_of = [&control](ClientId client) {
    for (const auto& budget : control.last_problem().budgets) {
      if (budget.client == client) return budget;
    }
    ADD_FAILURE() << "no budget for client " << client.value();
    return core::ClientBudget{};
  };
  control.OrchestrateNow();
  const core::ClientBudget join_time = budget_of(ClientId(1));
  // 300 kbps up / 500 kbps down before any report, * 0.95 - 40 kbps audio.
  EXPECT_NEAR(join_time.uplink.kbps(), 300 * 0.95 - 40, 1.0);
  EXPECT_NEAR(join_time.downlink.kbps(), 500 * 0.95 - 40, 1.0);

  control.OnSembReport(ClientId(1), DataRate::MegabitsPerSec(3));
  control.OnDownlinkReport(ClientId(1), DataRate::MegabitsPerSec(4));
  control.OrchestrateNow();
  EXPECT_NEAR(budget_of(ClientId(1)).uplink.kbps(), 3000 * 0.95 - 40, 1.0);
  EXPECT_EQ(control.reports_aged_out(), 0);

  // The meeting is not started, so no client or node reports for 11 s.
  conference->RunFor(TimeDelta::Seconds(11));
  control.OrchestrateNow();
  EXPECT_EQ(control.reports_aged_out(), 2);  // the uplink and the downlink
  EXPECT_EQ(budget_of(ClientId(1)).uplink, join_time.uplink);
  EXPECT_EQ(budget_of(ClientId(1)).downlink, join_time.downlink);

  control.OnSembReport(ClientId(1), DataRate::MegabitsPerSec(3));
  control.OnDownlinkReport(ClientId(1), DataRate::MegabitsPerSec(4));
  control.OrchestrateNow();
  EXPECT_EQ(control.reports_aged_out(), 2);
  EXPECT_NEAR(budget_of(ClientId(1)).uplink.kbps(), 3000 * 0.95 - 40, 1.0);
  EXPECT_NEAR(budget_of(ClientId(1)).downlink.kbps(), 4000 * 0.95 - 40, 1.0);
}

TEST(ControlPlane, SpeakerPriorityMultipliesSubscriptions) {
  ConferenceConfig config;
  auto conference = BuildMeeting(config, 3);
  conference->control().SetSpeaker(ClientId(2));
  conference->control().OrchestrateNow();
  for (const auto& sub : conference->control().last_problem().subscriptions) {
    if (sub.source.client == ClientId(2)) {
      EXPECT_NEAR(sub.priority, 3.0, 1e-9);  // default speaker priority
    } else {
      EXPECT_NEAR(sub.priority, 1.0, 1e-9);
    }
  }
}

TEST(ControlPlane, EventTriggerRespectsMinInterval) {
  ConferenceConfig config;
  auto conference = BuildMeeting(config, 2);
  conference->Start();
  conference->RunFor(TimeDelta::Seconds(5));
  const int before = conference->control().orchestration_count();
  // A burst of significant reports within one second coalesces into at
  // most one extra run (min interval 1 s).
  for (int i = 0; i < 10; ++i) {
    conference->control().OnDownlinkReport(
        ClientId(1), DataRate::KilobitsPerSec(500 + i * 400));
  }
  conference->RunFor(TimeDelta::MillisF(1100));
  EXPECT_LE(conference->control().orchestration_count(), before + 2);
}

TEST(ControlPlane, TimeTriggerCapsInterval) {
  ConferenceConfig config;
  auto conference = BuildMeeting(config, 2);
  conference->Start();
  conference->RunFor(TimeDelta::Seconds(30));
  // No interval may exceed the 3 s ceiling (plus one tick of slack).
  for (const auto& interval : conference->control().call_intervals()) {
    EXPECT_LE(interval, TimeDelta::MillisF(3300));
  }
}

TEST(ControlPlane, GtbrRetransmittedUntilAcked) {
  // Heavy downlink loss toward the publisher forces GTBR retransmissions
  // (reliability via GTBN, paper §4.3).
  ConferenceConfig config;
  auto conference = std::make_unique<Conference>(config);
  for (uint32_t id = 1; id <= 2; ++id) {
    ParticipantConfig pc;
    pc.client = DefaultClient(id);
    pc.access = Access();
    if (id == 1) pc.access.downlink.loss_rate = 0.5;
    conference->AddParticipant(pc);
  }
  conference->SubscribeAllCameras(kResolution720p);
  conference->Start();
  conference->RunFor(TimeDelta::Seconds(20));
  EXPECT_GT(conference->node(0)->gtbr_retransmissions(), 0);
  // Despite the loss, configurations eventually arrive.
  EXPECT_GT(conference->client(ClientId(1))->gtbr_messages_received(), 0);
}

TEST(ControlPlane, ForceSingleStreamFallback) {
  ConferenceConfig config;
  auto conference = BuildMeeting(config, 3);
  conference->Start();
  conference->RunFor(TimeDelta::Seconds(10));
  Client* publisher = conference->client(ClientId(1));
  publisher->ForceSingleStreamFallback();
  conference->RunFor(TimeDelta::Seconds(5));
  // Only the lowest camera layer may carry a nonzero target.
  EXPECT_EQ(publisher->camera_layer_rate(0), DataRate::Zero());
  EXPECT_EQ(publisher->camera_layer_rate(1), DataRate::Zero());
  EXPECT_GT(publisher->camera_layer_rate(2).bps(), 0);
}

TEST(ControlPlane, ScreenShareGetsOwnSsrcsAndPriority) {
  ConferenceConfig config;
  auto conference = std::make_unique<Conference>(config);
  for (uint32_t id = 1; id <= 2; ++id) {
    ParticipantConfig pc;
    pc.client = DefaultClient(id);
    if (id == 1) pc.client.screen = DefaultScreenConfig();
    pc.access = Access();
    conference->AddParticipant(pc);
  }
  std::vector<core::Subscription> subs;
  subs.push_back({ClientId(2), {ClientId(1), core::SourceKind::kScreen},
                  kResolution1080p, 1.0, 0});
  subs.push_back({ClientId(2), {ClientId(1), core::SourceKind::kCamera},
                  kResolution360p, 1.0, 0});
  conference->participant(ClientId(2)).Subscribe(std::move(subs));
  conference->control().OrchestrateNow();

  const auto screen_layers = conference->control().directory()->LayersOf(
      ClientId(1), core::SourceKind::kScreen);
  EXPECT_FALSE(screen_layers.empty());
  for (const auto& sub : conference->control().last_problem().subscriptions) {
    if (sub.source.kind == core::SourceKind::kScreen) {
      EXPECT_NEAR(sub.priority, 4.0, 1e-9);  // default screen priority
    }
  }
}

TEST(ControlPlane, OrchestrationSatisfiesItsOwnProblem) {
  ConferenceConfig config;
  auto conference = BuildMeeting(config, 5);
  conference->Start();
  conference->RunFor(TimeDelta::Seconds(15));
  EXPECT_EQ(core::ValidateSolution(conference->control().last_problem(),
                                   conference->control().last_solution()),
            "");
}

}  // namespace
}  // namespace gso::conference
