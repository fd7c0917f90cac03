// Receive-side frame assembly and decodability tracking.
//
// Packets are grouped by frame id; a frame is complete once all of its
// `packets_in_frame` fragments arrived. A delta frame is decodable only if
// no earlier frame on the stream was skipped since the last decoded frame;
// after an unrecoverable gap the buffer freezes until the next keyframe.
// Missing packets are exposed for NACK generation.
#ifndef GSO_MEDIA_JITTER_BUFFER_H_
#define GSO_MEDIA_JITTER_BUFFER_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/sequence.h"
#include "common/units.h"
#include "net/rtp_packet.h"

namespace gso::media {

struct DecodedFrame {
  uint32_t frame_id = 0;
  DataSize size;
  bool is_keyframe = false;
  Timestamp completion_time;
};

class JitterBuffer {
 public:
  // Inserts one packet; returns frames that became decodable, in order.
  std::vector<DecodedFrame> Insert(const net::RtpPacket& packet,
                                   Timestamp now);

  // Sequence numbers to NACK now (ReceiveWindow::Collect above the floor).
  std::vector<uint16_t> CollectNacks(Timestamp now) {
    return window_.Collect(now, nack_floor_ + 1);
  }

  // True when the decoder is stalled on a gap and needs a keyframe to
  // resynchronize (drives PLI emission after NACK gives up).
  bool NeedsKeyframe(Timestamp now) const;

  int64_t frames_decoded() const { return frames_decoded_; }
  int64_t frames_dropped() const { return frames_dropped_; }

 private:
  struct PartialFrame {
    uint16_t packets_expected = 0;
    std::set<uint16_t> packets_received;
    DataSize size;
    bool is_keyframe = false;
    // Lowest unwrapped sequence seen for this frame. Sequence numbers are
    // assigned in encode order, so every packet of every earlier frame is
    // strictly below this; decoding the frame proves nothing below it can
    // still be displayed, which is what lets CollectNacks skip it.
    int64_t min_seq = INT64_MAX;
  };

  // 64 per 100 ms tick: a few hundred repairs/s.
  ReceiveWindow window_{/*max_attempts=*/6, /*max_batch=*/64};
  std::map<uint32_t, PartialFrame> partial_frames_;
  // Sequences at or below this are never NACKed: once the decoder gives up
  // on a gap and waits for a keyframe, retransmitting the backlog is pure
  // waste (and on a congested link, a self-sustaining retransmission
  // storm).
  int64_t nack_floor_ = -1;
  uint32_t last_decoded_frame_ = 0;
  bool have_decoded_ = false;
  bool waiting_for_keyframe_ = true;  // until the first keyframe decodes
  Timestamp waiting_since_ = Timestamp::Zero();
  int64_t frames_decoded_ = 0;
  int64_t frames_dropped_ = 0;
};

}  // namespace gso::media

#endif  // GSO_MEDIA_JITTER_BUFFER_H_
