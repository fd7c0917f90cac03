// Receive-side frame assembly and decodability tracking.
//
// Packets are grouped by frame id; a frame is complete once all of its
// `packets_in_frame` fragments arrived. A delta frame is decodable only if
// no earlier frame on the stream was skipped since the last decoded frame;
// after an unrecoverable gap the buffer freezes until the next keyframe.
// Missing packets are exposed for NACK generation.
#ifndef GSO_MEDIA_JITTER_BUFFER_H_
#define GSO_MEDIA_JITTER_BUFFER_H_

#include <array>
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
  // Packet indices received for one frame. Indices below 256 (a frame of
  // up to ~300 KB at the packetizer's 1200-byte payload) live in the
  // inline bitset; an ordered spill takes any larger one, so every
  // uint16_t index, hostile or not, still deduplicates exactly.
  class PacketIndexSet {
   public:
    // Returns false if `index` was already present.
    bool Insert(uint16_t index) {
      if (index >= kInlineIndices) {
        if (!spill_.insert(index).second) return false;
      } else {
        uint64_t& word = bits_[index / 64];
        const uint64_t bit = uint64_t{1} << (index % 64);
        if ((word & bit) != 0) return false;
        word |= bit;
      }
      ++size_;
      return true;
    }
    size_t size() const { return size_; }

   private:
    static constexpr uint16_t kInlineIndices = 256;
    std::array<uint64_t, kInlineIndices / 64> bits_{};
    uint32_t size_ = 0;
    std::set<uint16_t> spill_;
  };

  struct PartialFrame {
    uint16_t packets_expected = 0;
    PacketIndexSet packets_received;
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
