#include "media/jitter_buffer.h"

#include <algorithm>

namespace gso::media {
namespace {

// A gap is declared unrecoverable once the decoder is this many complete
// frames ahead of it; we then freeze until the next keyframe.
constexpr int kMaxFrameReorderWindow = 50;

}  // namespace

std::vector<DecodedFrame> JitterBuffer::Insert(const net::RtpPacket& packet,
                                               Timestamp now) {
  std::vector<DecodedFrame> decoded;

  const int64_t seq = window_.Insert(packet.sequence_number);

  // Frames older than the decode head are late retransmissions of frames we
  // already decoded or abandoned.
  if (have_decoded_ && packet.frame_id <= last_decoded_frame_) return decoded;

  auto& frame = partial_frames_[packet.frame_id];
  frame.packets_expected = packet.packets_in_frame;
  frame.is_keyframe = packet.is_keyframe;
  frame.min_seq = std::min(frame.min_seq, seq);
  if (frame.packets_received.Insert(packet.packet_index)) {
    frame.size += DataSize::Bytes(packet.payload_size);
  }

  // Drain every frame that became decodable, in frame order.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = partial_frames_.begin(); it != partial_frames_.end();) {
      const uint32_t frame_id = it->first;
      PartialFrame& pf = it->second;
      const bool complete =
          pf.packets_expected > 0 &&
          pf.packets_received.size() == pf.packets_expected;
      if (!complete) {
        ++it;
        continue;
      }
      const bool next_in_order =
          have_decoded_ && frame_id == last_decoded_frame_ + 1;
      const bool key_resync =
          pf.is_keyframe && (waiting_for_keyframe_ || !have_decoded_ ||
                             frame_id > last_decoded_frame_);
      if (next_in_order && !waiting_for_keyframe_) {
        // in-order delta (or key) frame
      } else if (key_resync) {
        // keyframe resynchronizes the decoder; everything older is dropped
        for (auto drop = partial_frames_.begin(); drop != it;) {
          ++frames_dropped_;
          drop = partial_frames_.erase(drop);
        }
      } else {
        ++it;
        continue;
      }
      DecodedFrame out;
      out.frame_id = frame_id;
      out.size = pf.size;
      out.is_keyframe = pf.is_keyframe;
      out.completion_time = now;
      decoded.push_back(out);
      ++frames_decoded_;
      last_decoded_frame_ = frame_id;
      have_decoded_ = true;
      waiting_for_keyframe_ = false;
      // Decode frontier: everything before this frame's first packet is
      // either decoded or abandoned (keyframe resync drops it above), so
      // NACKing those sequences would repair frames that can never be
      // shown — pure RTX waste on an already-struggling link.
      if (pf.min_seq != INT64_MAX) {
        nack_floor_ = std::max(nack_floor_, pf.min_seq - 1);
      }
      it = partial_frames_.erase(partial_frames_.begin(), std::next(it));
      progressed = true;
      break;
    }
  }

  // Give up on a gap once the buffer has run too far ahead of it. From
  // that point the only useful repair is a keyframe: abandon the NACK
  // backlog so the link is not flooded with stale retransmissions.
  if (!waiting_for_keyframe_ && have_decoded_ &&
      !partial_frames_.empty() &&
      partial_frames_.rbegin()->first >
          last_decoded_frame_ + kMaxFrameReorderWindow) {
    waiting_for_keyframe_ = true;
    waiting_since_ = now;
    nack_floor_ = window_.highest();
    window_.ClearRetries();
  }
  return decoded;
}

bool JitterBuffer::NeedsKeyframe(Timestamp now) const {
  if (!waiting_for_keyframe_) return false;
  if (!have_decoded_) {
    // Initial keyframe wait: only escalate if joining stalls noticeably.
    return now - waiting_since_ > TimeDelta::Millis(500);
  }
  return now - waiting_since_ > TimeDelta::Millis(250);
}

}  // namespace gso::media
