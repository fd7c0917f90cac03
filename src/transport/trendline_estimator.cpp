#include "transport/trendline_estimator.h"

#include <algorithm>
#include <cmath>

namespace gso::transport {

void TrendlineEstimator::Update(Timestamp send_time, Timestamp arrival_time) {
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
  if (arrival_delta < TimeDelta::Zero()) return;  // reordered; skip

  const double delay_variation_ms = arrival_delta.ms_f() - send_delta.ms_f();
  accumulated_delay_ms_ += delay_variation_ms;
  smoothed_delay_ms_ = kSmoothingCoef * smoothed_delay_ms_ +
                       (1 - kSmoothingCoef) * accumulated_delay_ms_;

  const Sample sample{(arrival_time - first_arrival_).ms_f(),
                      smoothed_delay_ms_};
  if (window_count_ < kWindowSize) {
    window_[window_count_++] = sample;  // the head stays 0 until full
  } else {
    window_[window_head_] = sample;  // replaces the oldest
    window_head_ = (window_head_ + 1) % kWindowSize;
  }

  if (window_count_ == kWindowSize) {
    trend_ = LinearFitSlope();
    Detect(trend_, arrival_delta, arrival_time);
  }
}

double TrendlineEstimator::LinearFitSlope() const {
  // Least squares over (arrival time, smoothed delay), summed oldest to
  // newest: [head, count), then [0, head) once the ring has wrapped.
  auto for_each_sample = [&](auto&& fn) {
    for (size_t i = window_head_; i < window_count_; ++i) fn(window_[i]);
    for (size_t i = 0; i < window_head_; ++i) fn(window_[i]);
  };
  double sum_x = 0;
  double sum_y = 0;
  for_each_sample([&](const Sample& s) {
    sum_x += s.arrival_ms;
    sum_y += s.smoothed_delay_ms;
  });
  const double n = static_cast<double>(window_count_);
  const double mean_x = sum_x / n;
  const double mean_y = sum_y / n;
  double numerator = 0;
  double denominator = 0;
  for_each_sample([&](const Sample& s) {
    numerator += (s.arrival_ms - mean_x) * (s.smoothed_delay_ms - mean_y);
    denominator += (s.arrival_ms - mean_x) * (s.arrival_ms - mean_x);
  });
  return denominator > 1e-9 ? numerator / denominator : 0.0;
}

void TrendlineEstimator::Detect(double trend, TimeDelta ts_delta,
                                Timestamp now) {
  // Scale the raw slope the way GCC does so one threshold fits all rates.
  const double sample_count =
      std::min<double>(static_cast<double>(window_count_), 60.0);
  const double modified_trend =
      sample_count * trend * kThresholdGain;

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

void TrendlineEstimator::UpdateThreshold(double modified_trend,
                                         Timestamp now) {
  // Adaptive threshold (γ in the draft): tracks |modified_trend| slowly so
  // self-inflicted delay does not freeze the detector, but ignores spikes.
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

}  // namespace gso::transport
