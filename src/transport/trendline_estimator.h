// Delay-gradient overuse detector (the "trendline" filter of GCC,
// draft-ietf-rmcat-gcc-02 §5.3-5.4).
//
// For each feedback sample we compute the one-way delay variation
// d(i) = (t_arrival(i) - t_arrival(i-1)) - (t_send(i) - t_send(i-1)),
// accumulate it, exponentially smooth it, and fit a least-squares line over
// the last `window_size` points. A persistently positive slope means the
// bottleneck queue is filling: BandwidthUsage::kOverusing.
#ifndef GSO_TRANSPORT_TRENDLINE_ESTIMATOR_H_
#define GSO_TRANSPORT_TRENDLINE_ESTIMATOR_H_

#include <array>
#include <cstddef>

#include "common/units.h"

namespace gso::transport {

enum class BandwidthUsage { kNormal, kOverusing, kUnderusing };

class TrendlineEstimator {
 public:
  TrendlineEstimator() = default;

  // Feeds one received-packet sample. Times are transport-clock absolute.
  void Update(Timestamp send_time, Timestamp arrival_time);

  BandwidthUsage State() const { return state_; }

  double trend() const { return trend_; }
  double threshold() const { return threshold_; }

 private:
  void Detect(double trend, TimeDelta ts_delta, Timestamp now);
  void UpdateThreshold(double modified_trend, Timestamp now);
  double LinearFitSlope() const;

  static constexpr size_t kWindowSize = 20;
  static constexpr double kSmoothingCoef = 0.9;
  static constexpr double kThresholdGain = 4.0;
  static constexpr double kOverusingTimeThresholdMs = 10.0;
  static constexpr double kMaxAdaptOffsetMs = 15.0;
  static constexpr double kUp = 0.0087;
  static constexpr double kDown = 0.039;

  struct Sample {
    double arrival_ms = 0;     // relative to first arrival
    double smoothed_delay_ms = 0;
  };

  bool first_ = true;
  Timestamp first_arrival_;
  Timestamp prev_send_;
  Timestamp prev_arrival_;
  double accumulated_delay_ms_ = 0;
  double smoothed_delay_ms_ = 0;
  // The newest kWindowSize samples: a ring, oldest at window_head_.
  std::array<Sample, kWindowSize> window_{};
  size_t window_head_ = 0;
  size_t window_count_ = 0;

  double trend_ = 0;
  double threshold_ = 12.5;
  Timestamp last_threshold_update_ = Timestamp::Zero();
  double time_over_using_ms_ = -1;
  int overuse_counter_ = 0;
  double prev_trend_ = 0;
  BandwidthUsage state_ = BandwidthUsage::kNormal;
};

}  // namespace gso::transport

#endif  // GSO_TRANSPORT_TRENDLINE_ESTIMATOR_H_
