// Receiver-side transport feedback generation.
//
// Logs the arrival time of every packet carrying a transport-wide sequence
// number and periodically emits a TransportFeedback RTCP message covering
// the contiguous sequence range since the previous report; gaps in the
// range are reported as lost.
#ifndef GSO_TRANSPORT_FEEDBACK_BUILDER_H_
#define GSO_TRANSPORT_FEEDBACK_BUILDER_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/sequence.h"
#include "common/units.h"
#include "net/rtcp_packets.h"

namespace gso::transport {

// Every sequence the builder holds lies in [next_to_report_, highest seen]:
// arrivals below the window are dropped and Build() empties it. So the
// arrivals live in one dense vector indexed by `seq - next_to_report_`,
// which Build() clears keeping its capacity: steady arrivals never
// allocate.
class FeedbackBuilder {
 public:
  // `arrival` must be finite (the vector marks a gap as +infinity).
  void OnPacketArrived(uint16_t transport_sequence, Timestamp arrival) {
    const int64_t seq = unwrapper_.Unwrap(transport_sequence);
    // A late (reordered) packet whose sequence an earlier report already
    // covered is never reported again; storing it would strand the entry.
    if (next_to_report_ && seq < *next_to_report_) return;
    if (!next_to_report_) next_to_report_ = seq;
    const size_t index = static_cast<size_t>(seq - *next_to_report_);
    if (index >= arrivals_.size()) {
      arrivals_.resize(index + 1, Timestamp::PlusInfinity());
    }
    arrivals_[index] = arrival;
  }

  bool HasData() const { return !arrivals_.empty(); }

  // Builds feedback for [next_to_report_, highest seen]. Returns nullopt
  // when there is nothing to report. `reporter_ssrc` identifies the
  // receiver.
  std::optional<net::TransportFeedback> Build(Ssrc reporter_ssrc) {
    if (!HasData()) return std::nullopt;
    net::TransportFeedback fb;
    fb.sender_ssrc = reporter_ssrc;

    // Base time: the earliest arrival in the report window; a window of
    // only losses anchors on zero.
    const Timestamp base =
        *std::min_element(arrivals_.begin(), arrivals_.end());
    fb.base_time_ms =
        static_cast<uint32_t>(base.IsFinite() ? base.ms() : 0);

    fb.packets.reserve(arrivals_.size());
    for (size_t i = 0; i < arrivals_.size(); ++i) {
      net::TransportFeedback::PacketResult p;
      p.sequence = static_cast<uint16_t>(
          (*next_to_report_ + static_cast<int64_t>(i)) & 0xFFFF);
      if (arrivals_[i].IsFinite()) {
        p.received = true;
        const TimeDelta delta =
            arrivals_[i] - Timestamp::Millis(fb.base_time_ms);
        p.delta_250us = static_cast<uint32_t>(delta.us() / 250);
      }
      fb.packets.push_back(p);
    }
    *next_to_report_ += static_cast<int64_t>(arrivals_.size());
    arrivals_.clear();
    return fb;
  }

 private:
  SequenceUnwrapper unwrapper_;
  // Arrival time of sequence next_to_report_ + i; +infinity marks a gap.
  std::vector<Timestamp> arrivals_;
  std::optional<int64_t> next_to_report_;
};

}  // namespace gso::transport

#endif  // GSO_TRANSPORT_FEEDBACK_BUILDER_H_
