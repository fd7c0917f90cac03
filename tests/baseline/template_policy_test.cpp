// Tests for the Non-GSO template policies and the SFU layer selector.
#include "baseline/template_policy.h"

#include <gtest/gtest.h>

namespace gso::baseline {
namespace {

DataRate TotalRate(const std::vector<LayerDecision>& layers) {
  DataRate total;
  for (const auto& layer : layers) total += layer.bitrate;
  return total;
}

int ActiveLayers(const std::vector<LayerDecision>& layers) {
  int active = 0;
  for (const auto& layer : layers) {
    if (!layer.bitrate.IsZero()) ++active;
  }
  return active;
}

TEST(ChimeLike, OneOnOneSendsSingleStream) {
  TemplatePolicy policy(TemplateKind::kChimeLike);
  EXPECT_EQ(ActiveLayers(policy.Decide(DataRate::MegabitsPerSec(5), 2)), 1);
  EXPECT_EQ(ActiveLayers(policy.Decide(DataRate::KilobitsPerSec(500), 2)), 1);
}

TEST(ChimeLike, SmallMeetingHighPlusLow) {
  TemplatePolicy policy(TemplateKind::kChimeLike);
  const auto layers = policy.Decide(DataRate::MegabitsPerSec(5), 4);
  EXPECT_EQ(ActiveLayers(layers), 2);
  EXPECT_EQ(layers[0].bitrate, DataRate::MegabitsPerSecF(1.5));
  EXPECT_EQ(layers[2].bitrate, DataRate::KilobitsPerSec(300));
}

TEST(ChimeLike, LargeMeetingNever720p) {
  TemplatePolicy policy(TemplateKind::kChimeLike);
  for (int64_t kbps : {500, 1500, 5000, 20000}) {
    const auto layers =
        policy.Decide(DataRate::KilobitsPerSec(kbps), 20);
    EXPECT_TRUE(layers[0].bitrate.IsZero()) << kbps;
  }
}

TEST(ChimeLike, DegradesMonotonicallyWithUplink) {
  TemplatePolicy policy(TemplateKind::kChimeLike);
  DataRate previous = DataRate::PlusInfinity();
  for (int64_t kbps : {5000, 2000, 800, 250}) {
    const DataRate total =
        TotalRate(policy.Decide(DataRate::KilobitsPerSec(kbps), 4));
    EXPECT_LE(total, previous) << kbps;
    previous = total;
  }
}

TEST(ChimeLike, AlwaysSendsSomething) {
  // The template never blanks video completely — even awful uplinks get
  // the 100 kbps thumbnail.
  TemplatePolicy policy(TemplateKind::kChimeLike);
  for (int participants : {2, 4, 20}) {
    const auto layers =
        policy.Decide(DataRate::KilobitsPerSec(120), participants);
    EXPECT_GE(ActiveLayers(layers), 1) << participants;
  }
}

TEST(CoarseThreeLevel, ClassicLevels) {
  TemplatePolicy policy(TemplateKind::kCoarseThreeLevel);
  const auto rich = policy.Decide(DataRate::MegabitsPerSec(10), 2);
  EXPECT_EQ(rich[0].bitrate, DataRate::MegabitsPerSecF(1.2));
  EXPECT_EQ(rich[1].bitrate, DataRate::KilobitsPerSec(600));
  EXPECT_EQ(rich[2].bitrate, DataRate::KilobitsPerSec(300));
  const auto mid = policy.Decide(DataRate::MegabitsPerSecF(1.5), 2);
  EXPECT_TRUE(mid[0].bitrate.IsZero());
  EXPECT_EQ(mid[1].bitrate, DataRate::KilobitsPerSec(600));
}

TEST(Competitors, DecideWithoutCrashing) {
  for (TemplateKind kind :
       {TemplateKind::kCompetitorA, TemplateKind::kCompetitorB}) {
    TemplatePolicy policy(kind);
    for (int64_t kbps : {100, 500, 1500, 5000}) {
      const auto layers = policy.Decide(DataRate::KilobitsPerSec(kbps), 3);
      EXPECT_GE(ActiveLayers(layers), 1) << static_cast<int>(kind) << kbps;
    }
  }
}

TEST(CompetitorA, TwoLevelLadderWithWideGap) {
  TemplatePolicy policy(TemplateKind::kCompetitorA);
  const auto layers = policy.Decide(DataRate::MegabitsPerSec(5), 3);
  ASSERT_EQ(layers.size(), 2u);
  // The paper notes adjacent-stream ratios as large as 5x in the wild.
  EXPECT_GE(layers[0].bitrate.bps() / layers[1].bitrate.bps(), 5);
}

TEST(SfuSelector, PicksLargestFittingLayer) {
  SfuLayerSelector selector;
  const std::vector<DataRate> rates = {DataRate::MegabitsPerSecF(1.5),
                                       DataRate::KilobitsPerSec(600),
                                       DataRate::KilobitsPerSec(300)};
  EXPECT_EQ(selector.Select(rates, DataRate::MegabitsPerSec(2)), 0);
  EXPECT_EQ(selector.Select(rates, DataRate::MegabitsPerSec(1)), 1);
  EXPECT_EQ(selector.Select(rates, DataRate::KilobitsPerSec(400)), 2);
  EXPECT_EQ(selector.Select(rates, DataRate::KilobitsPerSec(100)), -1);
}

TEST(SfuSelector, SkipsDisabledLayers) {
  SfuLayerSelector selector;
  const std::vector<DataRate> rates = {DataRate::Zero(),
                                       DataRate::KilobitsPerSec(600),
                                       DataRate::Zero()};
  EXPECT_EQ(selector.Select(rates, DataRate::MegabitsPerSec(10)), 1);
  EXPECT_EQ(selector.Select(rates, DataRate::KilobitsPerSec(100)), -1);
}

TEST(SfuSelector, MarginLeavesHeadroom) {
  SfuLayerSelector selector;
  const std::vector<DataRate> rates = {DataRate::KilobitsPerSec(600)};
  // 600 <= 0.9 * 650 fails (585), 600 <= 0.9 * 700 passes (630).
  EXPECT_EQ(selector.Select(rates, DataRate::KilobitsPerSec(650)), -1);
  EXPECT_EQ(selector.Select(rates, DataRate::KilobitsPerSec(700)), 0);
}

}  // namespace
}  // namespace gso::baseline
