// Tests for the delay-gradient overuse detector, including a differential
// test against a frozen copy of the detector with its window in a deque.
#include "transport/trendline_estimator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/rng.h"

namespace gso::transport {
namespace {

TEST(Trendline, ConstantDelayIsNormal) {
  TrendlineEstimator estimator;
  for (int i = 0; i < 100; ++i) {
    const Timestamp send = Timestamp::Millis(i * 20);
    estimator.Update(send, send + TimeDelta::Millis(30));
  }
  EXPECT_EQ(estimator.State(), BandwidthUsage::kNormal);
}

TEST(Trendline, GrowingQueueTriggersOveruse) {
  TrendlineEstimator estimator;
  // Delay grows 2 ms per packet: a filling queue.
  for (int i = 0; i < 100; ++i) {
    const Timestamp send = Timestamp::Millis(i * 20);
    estimator.Update(send, send + TimeDelta::Millis(30 + 2 * i));
  }
  EXPECT_EQ(estimator.State(), BandwidthUsage::kOverusing);
}

TEST(Trendline, DrainingQueueTriggersUnderuse) {
  TrendlineEstimator estimator;
  // Prime with a standing queue, then drain it.
  int delay = 200;
  for (int i = 0; i < 50; ++i) {
    const Timestamp send = Timestamp::Millis(i * 20);
    estimator.Update(send, send + TimeDelta::Millis(delay));
  }
  for (int i = 50; i < 80; ++i) {
    delay -= 5;  // still decaying when we sample the state
    const Timestamp send = Timestamp::Millis(i * 20);
    estimator.Update(send, send + TimeDelta::Millis(delay));
  }
  EXPECT_EQ(estimator.State(), BandwidthUsage::kUnderusing);
}

TEST(Trendline, SmallJitterDoesNotTrigger) {
  TrendlineEstimator estimator;
  // +-1 ms alternating jitter around a constant base.
  for (int i = 0; i < 200; ++i) {
    const Timestamp send = Timestamp::Millis(i * 20);
    estimator.Update(send,
                     send + TimeDelta::Millis(30 + (i % 2 == 0 ? 1 : -1)));
  }
  EXPECT_EQ(estimator.State(), BandwidthUsage::kNormal);
}

TEST(Trendline, RecoversToNormalAfterOveruse) {
  TrendlineEstimator estimator;
  for (int i = 0; i < 60; ++i) {
    const Timestamp send = Timestamp::Millis(i * 20);
    estimator.Update(send, send + TimeDelta::Millis(30 + 3 * i));
  }
  ASSERT_EQ(estimator.State(), BandwidthUsage::kOverusing);
  // Constant delay again (queue stabilized after the sender backed off and
  // the level settled).
  for (int i = 60; i < 200; ++i) {
    const Timestamp send = Timestamp::Millis(i * 20);
    estimator.Update(send, send + TimeDelta::Millis(40));
  }
  EXPECT_NE(estimator.State(), BandwidthUsage::kOverusing);
}

TEST(Trendline, ReorderedArrivalIsSkippedSafely) {
  TrendlineEstimator estimator;
  Timestamp send = Timestamp::Millis(0);
  estimator.Update(send, send + TimeDelta::Millis(30));
  // Arrival earlier than the previous arrival (reorder): must not crash or
  // poison the state.
  estimator.Update(send + TimeDelta::Millis(20),
                   send + TimeDelta::Millis(10));
  for (int i = 2; i < 60; ++i) {
    const Timestamp s = Timestamp::Millis(i * 20);
    estimator.Update(s, s + TimeDelta::Millis(30));
  }
  EXPECT_EQ(estimator.State(), BandwidthUsage::kNormal);
}

// --- Differential test against the deque window ---------------------------
//
// Frozen copy of TrendlineEstimator as it was with its window in a
// std::deque. The ring must sum the same samples in the same order, so
// every trend, threshold and state is bit-identical.
class DequeTrendline {
 public:
  void Update(Timestamp send_time, Timestamp arrival_time) {
    if (first_) {
      first_ = false;
      first_arrival_ = arrival_time;
      prev_send_ = send_time;
      prev_arrival_ = arrival_time;
      return;
    }
    const TimeDelta send_delta = send_time - prev_send_;
    const TimeDelta arrival_delta = arrival_time - prev_arrival_;
    prev_send_ = send_time;
    prev_arrival_ = arrival_time;
    if (arrival_delta < TimeDelta::Zero()) return;
    const double delay_variation_ms =
        arrival_delta.ms_f() - send_delta.ms_f();
    accumulated_delay_ms_ += delay_variation_ms;
    smoothed_delay_ms_ = kSmoothingCoef * smoothed_delay_ms_ +
                         (1 - kSmoothingCoef) * accumulated_delay_ms_;
    window_.push_back(Sample{(arrival_time - first_arrival_).ms_f(),
                             smoothed_delay_ms_});
    if (window_.size() > kWindowSize) window_.pop_front();
    if (window_.size() == kWindowSize) {
      trend_ = LinearFitSlope();
      Detect(trend_, arrival_delta, arrival_time);
    }
  }
  BandwidthUsage State() const { return state_; }
  double trend() const { return trend_; }
  double threshold() const { return threshold_; }

 private:
  double LinearFitSlope() const {
    double sum_x = 0;
    double sum_y = 0;
    for (const auto& s : window_) {
      sum_x += s.arrival_ms;
      sum_y += s.smoothed_delay_ms;
    }
    const double n = static_cast<double>(window_.size());
    const double mean_x = sum_x / n;
    const double mean_y = sum_y / n;
    double numerator = 0;
    double denominator = 0;
    for (const auto& s : window_) {
      numerator += (s.arrival_ms - mean_x) * (s.smoothed_delay_ms - mean_y);
      denominator += (s.arrival_ms - mean_x) * (s.arrival_ms - mean_x);
    }
    return denominator > 1e-9 ? numerator / denominator : 0.0;
  }

  void Detect(double trend, TimeDelta ts_delta, Timestamp now) {
    const double sample_count =
        std::min<double>(static_cast<double>(window_.size()), 60.0);
    const double modified_trend = sample_count * trend * kThresholdGain;
    if (modified_trend > threshold_) {
      if (time_over_using_ms_ < 0) {
        time_over_using_ms_ = ts_delta.ms_f() / 2;
      } else {
        time_over_using_ms_ += ts_delta.ms_f();
      }
      ++overuse_counter_;
      if (time_over_using_ms_ > kOverusingTimeThresholdMs &&
          overuse_counter_ > 1 && trend >= prev_trend_) {
        time_over_using_ms_ = 0;
        overuse_counter_ = 0;
        state_ = BandwidthUsage::kOverusing;
      }
    } else if (modified_trend < -threshold_) {
      time_over_using_ms_ = -1;
      overuse_counter_ = 0;
      state_ = BandwidthUsage::kUnderusing;
    } else {
      time_over_using_ms_ = -1;
      overuse_counter_ = 0;
      state_ = BandwidthUsage::kNormal;
    }
    prev_trend_ = trend;
    UpdateThreshold(modified_trend, now);
  }

  void UpdateThreshold(double modified_trend, Timestamp now) {
    if (last_threshold_update_ == Timestamp::Zero()) {
      last_threshold_update_ = now;
    }
    const double abs_trend = std::fabs(modified_trend);
    if (abs_trend > threshold_ + kMaxAdaptOffsetMs) {
      last_threshold_update_ = now;
      return;
    }
    const double k = abs_trend < threshold_ ? kDown : kUp;
    const double time_delta_ms =
        std::min((now - last_threshold_update_).ms_f(), 100.0);
    threshold_ += k * (abs_trend - threshold_) * time_delta_ms;
    threshold_ = std::clamp(threshold_, 6.0, 600.0);
    last_threshold_update_ = now;
  }

  static constexpr size_t kWindowSize = 20;
  static constexpr double kSmoothingCoef = 0.9;
  static constexpr double kThresholdGain = 4.0;
  static constexpr double kOverusingTimeThresholdMs = 10.0;
  static constexpr double kMaxAdaptOffsetMs = 15.0;
  static constexpr double kUp = 0.0087;
  static constexpr double kDown = 0.039;

  struct Sample {
    double arrival_ms = 0;
    double smoothed_delay_ms = 0;
  };

  bool first_ = true;
  Timestamp first_arrival_;
  Timestamp prev_send_;
  Timestamp prev_arrival_;
  double accumulated_delay_ms_ = 0;
  double smoothed_delay_ms_ = 0;
  std::deque<Sample> window_;
  double trend_ = 0;
  double threshold_ = 12.5;
  Timestamp last_threshold_update_ = Timestamp::Zero();
  double time_over_using_ms_ = -1;
  int overuse_counter_ = 0;
  double prev_trend_ = 0;
  BandwidthUsage state_ = BandwidthUsage::kNormal;
};

// Seeded send/arrival scripts: sends in bursts (sub-millisecond gaps) and
// at pacing gaps up to 40 ms; a one-way delay that holds, fills at up to
// 3 ms per packet or drains, with Gaussian jitter; and reordered arrivals
// (earlier than the previous one). Trend, threshold and state must be
// bit-identical after every Update.
TEST(TrendlineDifferential, MatchesDequeWindow) {
  int states_seen[3] = {0, 0, 0};
  for (uint64_t seed = 1; seed <= 48; ++seed) {
    Rng rng(seed);
    TrendlineEstimator ring;
    DequeTrendline reference;
    int64_t send_us = rng.UniformInt(0, 1000000);
    double delay_ms = rng.Uniform(5, 80);
    double slope_ms = 0;
    for (int i = 0; i < 3000; ++i) {
      if (rng.Bernoulli(0.02)) slope_ms = rng.Uniform(-3, 3);
      if (rng.Bernoulli(0.02)) slope_ms = 0;
      delay_ms = std::clamp(delay_ms + slope_ms, 1.0, 800.0);
      send_us += rng.Bernoulli(0.5) ? rng.UniformInt(0, 999)
                                    : rng.UniformInt(1000, 40000);
      double arrival_ms = delay_ms + rng.Normal(0, 1.5);
      if (rng.Bernoulli(0.01)) arrival_ms -= rng.Uniform(5, 60);  // reorder
      const Timestamp send = Timestamp::Micros(send_us);
      const Timestamp arrival =
          send + TimeDelta::Micros(std::llround(arrival_ms * 1000));
      ring.Update(send, arrival);
      reference.Update(send, arrival);
      ASSERT_EQ(ring.trend(), reference.trend())
          << "seed " << seed << " update " << i;
      ASSERT_EQ(ring.threshold(), reference.threshold())
          << "seed " << seed << " update " << i;
      ASSERT_EQ(ring.State(), reference.State())
          << "seed " << seed << " update " << i;
      ++states_seen[static_cast<int>(ring.State())];
    }
  }
  for (int seen : states_seen) EXPECT_GT(seen, 1000);
}

}  // namespace
}  // namespace gso::transport
