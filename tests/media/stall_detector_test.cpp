// Tests for the paper-defined video-stall metric (the voice-stall metric,
// Client::VoiceStallRate, is tested in tests/conference/client_test.cpp).
#include "media/stall_detector.h"

#include <gtest/gtest.h>

namespace gso::media {
namespace {

TEST(VideoStall, SmoothPlaybackHasNoStall) {
  VideoStallDetector detector;
  // 25 fps for 10 seconds.
  for (int i = 0; i < 250; ++i) {
    detector.OnFrameRendered(Timestamp::Millis(i * 40));
  }
  detector.OnSessionEnd(Timestamp::Seconds(10));
  EXPECT_DOUBLE_EQ(
      detector.StallRate(Timestamp::Zero(), Timestamp::Seconds(10)), 0.0);
  EXPECT_NEAR(
      detector.AverageFramerate(Timestamp::Zero(), Timestamp::Seconds(10)),
      25.0, 0.1);
}

TEST(VideoStall, GapOver200msMarksIntervals) {
  VideoStallDetector detector;
  detector.OnFrameRendered(Timestamp::Millis(100));
  detector.OnFrameRendered(Timestamp::Millis(140));
  // 500 ms freeze inside second 0.
  detector.OnFrameRendered(Timestamp::Millis(640));
  for (int i = 0; i < 110; ++i) {
    detector.OnFrameRendered(Timestamp::Millis(680 + i * 40));
  }
  detector.OnSessionEnd(Timestamp::Seconds(5));
  // Second 0 stalled; seconds 1..4 clean (playback runs to the end).
  EXPECT_DOUBLE_EQ(
      detector.StallRate(Timestamp::Zero(), Timestamp::Seconds(5)), 0.2);
}

TEST(VideoStall, ExactThresholdGapDoesNotStall) {
  VideoStallDetector detector;
  detector.OnFrameRendered(Timestamp::Millis(0));
  detector.OnFrameRendered(Timestamp::Millis(200));  // not > 200 ms
  detector.OnSessionEnd(Timestamp::Millis(400));
  EXPECT_DOUBLE_EQ(
      detector.StallRate(Timestamp::Zero(), Timestamp::Seconds(1)), 0.0);
}

TEST(VideoStall, TrailingFreezeCountsAtSessionEnd) {
  VideoStallDetector detector;
  detector.OnFrameRendered(Timestamp::Millis(100));
  detector.OnSessionEnd(Timestamp::Seconds(4));  // frozen the whole time
  EXPECT_DOUBLE_EQ(
      detector.StallRate(Timestamp::Zero(), Timestamp::Seconds(4)), 1.0);
}

TEST(VideoStall, SpanCrossingIntervalsMarksAll) {
  VideoStallDetector detector;
  detector.OnFrameRendered(Timestamp::Millis(900));
  detector.OnFrameRendered(Timestamp::Millis(2100));  // 1.2 s freeze
  detector.OnSessionEnd(Timestamp::Seconds(3));
  // Seconds 0, 1, 2 all touched by the frozen span.
  EXPECT_DOUBLE_EQ(
      detector.StallRate(Timestamp::Zero(), Timestamp::Seconds(3)), 1.0);
}

TEST(VideoStall, WindowedQueryIgnoresOutsideIntervals) {
  VideoStallDetector detector;
  detector.OnFrameRendered(Timestamp::Millis(100));
  detector.OnFrameRendered(Timestamp::Millis(900));  // stall in second 0
  for (int i = 0; i < 100; ++i) {
    detector.OnFrameRendered(Timestamp::Millis(1000 + i * 40));
  }
  detector.OnSessionEnd(Timestamp::Seconds(5));
  // Measuring from second 1 on, the startup stall is excluded.
  EXPECT_DOUBLE_EQ(
      detector.StallRate(Timestamp::Seconds(1), Timestamp::Seconds(5)), 0.0);
}

TEST(VideoStall, ForgetBeforePreservesWindowedRateAndMonotoneCount) {
  VideoStallDetector detector;
  // Second 0 stalls (900 ms freeze), then smooth 25 fps playback until a
  // second stall inside second 5, then smooth again until 8 s.
  detector.OnFrameRendered(Timestamp::Zero());
  detector.OnFrameRendered(Timestamp::Millis(900));
  for (int64_t t = 960; t <= 5000; t += 40) {
    detector.OnFrameRendered(Timestamp::Millis(t));
  }
  detector.OnFrameRendered(Timestamp::Millis(5900));
  for (int64_t t = 5940; t < 8000; t += 40) {
    detector.OnFrameRendered(Timestamp::Millis(t));
  }
  detector.OnSessionEnd(Timestamp::Seconds(8));
  EXPECT_EQ(detector.stalled_interval_count(), 2);
  const double windowed =
      detector.StallRate(Timestamp::Seconds(4), Timestamp::Seconds(8));
  EXPECT_DOUBLE_EQ(windowed, 0.25);

  // Dropping history below the window start changes nothing observable:
  // the windowed rate is identical and the stall counter stays monotone.
  detector.ForgetBefore(Timestamp::Seconds(4));
  EXPECT_DOUBLE_EQ(
      detector.StallRate(Timestamp::Seconds(4), Timestamp::Seconds(8)),
      windowed);
  EXPECT_EQ(detector.stalled_interval_count(), 2);
}

}  // namespace
}  // namespace gso::media
