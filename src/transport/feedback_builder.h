// Receiver-side transport feedback generation.
//
// Logs the arrival time of every packet carrying a transport-wide sequence
// number and periodically emits a TransportFeedback RTCP message covering
// the contiguous sequence range since the previous report; gaps in the
// range are reported as lost.
#ifndef GSO_TRANSPORT_FEEDBACK_BUILDER_H_
#define GSO_TRANSPORT_FEEDBACK_BUILDER_H_

#include <map>
#include <optional>

#include "common/sequence.h"
#include "common/units.h"
#include "net/rtcp_packets.h"

namespace gso::transport {

class FeedbackBuilder {
 public:
  void OnPacketArrived(uint16_t transport_sequence, Timestamp arrival) {
    const int64_t seq = unwrapper_.Unwrap(transport_sequence);
    // A late (reordered) packet whose sequence an earlier report already
    // covered is never reported again; storing it would strand the entry.
    if (next_to_report_ && seq < *next_to_report_) return;
    arrivals_[seq] = arrival;
    if (!next_to_report_) next_to_report_ = seq;
    max_seen_ = std::max(max_seen_, seq);
  }

  bool HasData() const {
    return next_to_report_ && max_seen_ >= *next_to_report_;
  }

  // Builds feedback for [next_to_report_, max_seen_]. Returns nullopt when
  // there is nothing to report. `reporter_ssrc` identifies the receiver.
  std::optional<net::TransportFeedback> Build(Ssrc reporter_ssrc) {
    if (!HasData()) return std::nullopt;
    net::TransportFeedback fb;
    fb.sender_ssrc = reporter_ssrc;

    // Base time: the earliest arrival in the report window.
    Timestamp base = Timestamp::PlusInfinity();
    for (int64_t s = *next_to_report_; s <= max_seen_; ++s) {
      const auto it = arrivals_.find(s);
      if (it != arrivals_.end()) base = std::min(base, it->second);
    }
    if (!base.IsFinite()) {
      // Window contains only losses; anchor on zero.
      base = Timestamp::Zero();
    }
    fb.base_time_ms = static_cast<uint32_t>(base.ms());

    for (int64_t s = *next_to_report_; s <= max_seen_; ++s) {
      net::TransportFeedback::PacketResult p;
      p.sequence = static_cast<uint16_t>(s & 0xFFFF);
      const auto it = arrivals_.find(s);
      if (it != arrivals_.end()) {
        p.received = true;
        const TimeDelta delta = it->second - Timestamp::Millis(fb.base_time_ms);
        p.delta_250us = static_cast<uint32_t>(delta.us() / 250);
        arrivals_.erase(it);
      }
      fb.packets.push_back(p);
    }
    next_to_report_ = max_seen_ + 1;
    return fb;
  }

 private:
  SequenceUnwrapper unwrapper_;
  std::map<int64_t, Timestamp> arrivals_;
  std::optional<int64_t> next_to_report_;
  int64_t max_seen_ = -1;
};

}  // namespace gso::transport

#endif  // GSO_TRANSPORT_FEEDBACK_BUILDER_H_
