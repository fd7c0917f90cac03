// QoE stall metrics as defined by the paper.
//
// Video stall (footnote 9): the percentage of playback intervals in which
// the maximum delay between two consecutive rendered frames exceeds 200 ms.
// Voice stall (footnote 10): the percentage of audio playback intervals
// whose packet loss exceeds 10%; conference::Client::VoiceStallRate
// measures it from the audio the client receives.
#ifndef GSO_MEDIA_STALL_DETECTOR_H_
#define GSO_MEDIA_STALL_DETECTOR_H_

#include <cstdint>
#include <iterator>
#include <set>

#include "common/units.h"

namespace gso::media {

inline constexpr TimeDelta kVideoStallGap = TimeDelta::Millis(200);
inline constexpr TimeDelta kPlaybackInterval = TimeDelta::Seconds(1);
inline constexpr double kVoiceStallLossThreshold = 0.10;

class VideoStallDetector {
 public:
  void OnFrameRendered(Timestamp now) {
    if (has_frame_) {
      const TimeDelta gap = now - last_frame_;
      if (gap > kVideoStallGap) {
        // Every playback interval the frozen span [last_frame_, now] touches
        // counts as stalled.
        MarkStalled(last_frame_, now);
      }
    }
    has_frame_ = true;
    last_frame_ = now;
    total_frames_++;
  }

  // Finalizes the session: a trailing freeze up to `end` also stalls.
  void OnSessionEnd(Timestamp end) {
    if (has_frame_ && end - last_frame_ > kVideoStallGap) {
      MarkStalled(last_frame_, end);
    }
    session_end_ = end;
  }

  // Stall rate over [session_start, end): stalled intervals / total.
  double StallRate(Timestamp session_start, Timestamp session_end) const {
    const int64_t first = session_start.us() / kPlaybackInterval.us();
    const int64_t last = (session_end.us() - 1) / kPlaybackInterval.us();
    if (last < first) return 0.0;
    const int64_t stalled = static_cast<int64_t>(
        std::distance(stalled_intervals_.lower_bound(first),
                      stalled_intervals_.upper_bound(last)));
    return static_cast<double>(stalled) / static_cast<double>(last - first + 1);
  }

  // Drops stall bookkeeping for intervals that end before `t`. Reports
  // always window at a measurement start >= `t`, so trimming below it
  // never changes a reported rate — but a detector that lives for hours
  // of churny meeting (service shards, the soak harness) stays O(window)
  // instead of O(session). Freeze detection is unaffected: the open gap
  // state (last_frame_) is kept.
  void ForgetBefore(Timestamp t) {
    const int64_t first_kept = t.us() / kPlaybackInterval.us();
    auto end = stalled_intervals_.lower_bound(first_kept);
    forgotten_ += std::distance(stalled_intervals_.begin(), end);
    stalled_intervals_.erase(stalled_intervals_.begin(), end);
  }

  int64_t total_frames() const { return total_frames_; }

  // Playback intervals marked stalled so far (monotone across
  // ForgetBefore; feeds the observability counter without finalizing the
  // session).
  int64_t stalled_interval_count() const {
    return forgotten_ + static_cast<int64_t>(stalled_intervals_.size());
  }

  // Intervals currently held in memory (soak invariant: O(window) after
  // periodic ForgetBefore, not O(session)).
  size_t resident_interval_count() const { return stalled_intervals_.size(); }

  // Average framerate over the session.
  double AverageFramerate(Timestamp session_start, Timestamp session_end) const {
    const double seconds = (session_end - session_start).seconds();
    return seconds > 0 ? static_cast<double>(total_frames_) / seconds : 0.0;
  }

 private:
  void MarkStalled(Timestamp from, Timestamp to) {
    const int64_t first = from.us() / kPlaybackInterval.us();
    const int64_t last = to.us() / kPlaybackInterval.us();
    for (int64_t i = first; i <= last; ++i) stalled_intervals_.insert(i);
  }

  bool has_frame_ = false;
  Timestamp last_frame_;
  Timestamp session_end_;
  int64_t total_frames_ = 0;
  int64_t forgotten_ = 0;  // intervals dropped by ForgetBefore
  std::set<int64_t> stalled_intervals_;
};

}  // namespace gso::media

#endif  // GSO_MEDIA_STALL_DETECTOR_H_
