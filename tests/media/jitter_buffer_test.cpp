// Tests for receive-side frame assembly, NACK generation and keyframe
// resynchronization, including a differential test of the bitset frame
// index set against a frozen copy of the std::set buffer it replaced.
#include "media/jitter_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"

namespace gso::media {
namespace {

net::RtpPacket MakePacket(uint16_t seq, uint32_t frame_id,
                          uint16_t packet_index, uint16_t packets_in_frame,
                          bool keyframe = false) {
  net::RtpPacket p;
  p.ssrc = Ssrc(1);
  p.sequence_number = seq;
  p.frame_id = frame_id;
  p.packet_index = packet_index;
  p.packets_in_frame = packets_in_frame;
  p.is_keyframe = keyframe;
  p.payload_size = 1000;
  p.marker = packet_index + 1 == packets_in_frame;
  return p;
}

TEST(JitterBuffer, SinglePacketKeyframeDecodesImmediately) {
  JitterBuffer buffer;
  const auto decoded =
      buffer.Insert(MakePacket(0, 1, 0, 1, true), Timestamp::Millis(10));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].frame_id, 1u);
  EXPECT_TRUE(decoded[0].is_keyframe);
}

TEST(JitterBuffer, DeltaBeforeKeyframeWaits) {
  JitterBuffer buffer;
  EXPECT_TRUE(
      buffer.Insert(MakePacket(0, 1, 0, 1, false), Timestamp::Millis(10))
          .empty());
  // Keyframe arrives as frame 2: decoder resyncs there.
  const auto decoded =
      buffer.Insert(MakePacket(1, 2, 0, 1, true), Timestamp::Millis(20));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].frame_id, 2u);
}

TEST(JitterBuffer, MultiPacketFrameNeedsAllFragments) {
  JitterBuffer buffer;
  EXPECT_TRUE(
      buffer.Insert(MakePacket(0, 1, 0, 3, true), Timestamp::Millis(1))
          .empty());
  EXPECT_TRUE(
      buffer.Insert(MakePacket(2, 1, 2, 3, true), Timestamp::Millis(2))
          .empty());
  const auto decoded =
      buffer.Insert(MakePacket(1, 1, 1, 3, true), Timestamp::Millis(3));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].size, DataSize::Bytes(3000));
}

TEST(JitterBuffer, InOrderDeltaChainDecodes) {
  JitterBuffer buffer;
  buffer.Insert(MakePacket(0, 1, 0, 1, true), Timestamp::Millis(1));
  for (uint32_t f = 2; f <= 5; ++f) {
    const auto decoded = buffer.Insert(
        MakePacket(static_cast<uint16_t>(f - 1), f, 0, 1),
        Timestamp::Millis(f * 40));
    ASSERT_EQ(decoded.size(), 1u) << f;
    EXPECT_EQ(decoded[0].frame_id, f);
  }
  EXPECT_EQ(buffer.frames_decoded(), 5);
}

TEST(JitterBuffer, ReorderedFrameDecodesInOrder) {
  JitterBuffer buffer;
  buffer.Insert(MakePacket(0, 1, 0, 1, true), Timestamp::Millis(1));
  // Frame 3 arrives before frame 2: held back.
  EXPECT_TRUE(buffer.Insert(MakePacket(2, 3, 0, 1), Timestamp::Millis(2))
                  .empty());
  const auto decoded =
      buffer.Insert(MakePacket(1, 2, 0, 1), Timestamp::Millis(3));
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].frame_id, 2u);
  EXPECT_EQ(decoded[1].frame_id, 3u);
}

TEST(JitterBuffer, MissingSequencesAreNacked) {
  JitterBuffer buffer;
  buffer.Insert(MakePacket(0, 1, 0, 1, true), Timestamp::Millis(1));
  buffer.Insert(MakePacket(5, 3, 0, 1), Timestamp::Millis(50));
  const auto nacks = buffer.CollectNacks(Timestamp::Millis(60));
  EXPECT_EQ(nacks, (std::vector<uint16_t>{1, 2, 3, 4}));
}

TEST(JitterBuffer, NackRetryIntervalAndBudget) {
  JitterBuffer buffer;
  buffer.Insert(MakePacket(0, 1, 0, 1, true), Timestamp::Millis(1));
  buffer.Insert(MakePacket(2, 2, 1, 2), Timestamp::Millis(10));
  Timestamp now = Timestamp::Millis(20);
  int times_nacked = 0;
  for (int i = 0; i < 100; ++i) {
    if (!buffer.CollectNacks(now).empty()) ++times_nacked;
    now += TimeDelta::Millis(10);
  }
  // Retries every >= 50 ms, up to the attempt budget (6).
  EXPECT_GE(times_nacked, 4);
  EXPECT_LE(times_nacked, 6);
}

TEST(JitterBuffer, RepairedSequenceStopsNacking) {
  JitterBuffer buffer;
  buffer.Insert(MakePacket(0, 1, 0, 1, true), Timestamp::Millis(1));
  buffer.Insert(MakePacket(2, 2, 1, 2), Timestamp::Millis(10));
  EXPECT_FALSE(buffer.CollectNacks(Timestamp::Millis(20)).empty());
  // Retransmission arrives: frame completes and NACKs stop.
  const auto decoded =
      buffer.Insert(MakePacket(1, 2, 0, 2), Timestamp::Millis(30));
  EXPECT_EQ(decoded.size(), 1u);
  EXPECT_TRUE(buffer.CollectNacks(Timestamp::Millis(100)).empty());
}

TEST(JitterBuffer, GiveUpOnOldGapAndResyncOnKeyframe) {
  JitterBuffer buffer;
  buffer.Insert(MakePacket(0, 1, 0, 1, true), Timestamp::Millis(1));
  // Frame 2 lost entirely; frames 3..60 arrive (beyond the 50-frame
  // reorder window) -> decoder gives up and waits for a keyframe.
  uint16_t seq = 2;
  for (uint32_t f = 3; f <= 60; ++f) {
    buffer.Insert(MakePacket(seq++, f, 0, 1), Timestamp::Millis(f * 40));
  }
  EXPECT_EQ(buffer.frames_decoded(), 1);
  EXPECT_TRUE(buffer.NeedsKeyframe(Timestamp::Seconds(10)));
  // The stale gap is no longer NACKed.
  EXPECT_TRUE(buffer.CollectNacks(Timestamp::Seconds(10)).empty());
  // A keyframe resynchronizes.
  const auto decoded = buffer.Insert(MakePacket(seq, 61, 0, 1, true),
                                     Timestamp::Seconds(11));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].frame_id, 61u);
  EXPECT_FALSE(buffer.NeedsKeyframe(Timestamp::Seconds(12)));
}

TEST(JitterBuffer, DuplicatePacketsHarmless) {
  JitterBuffer buffer;
  buffer.Insert(MakePacket(0, 1, 0, 2, true), Timestamp::Millis(1));
  buffer.Insert(MakePacket(0, 1, 0, 2, true), Timestamp::Millis(2));
  const auto decoded =
      buffer.Insert(MakePacket(1, 1, 1, 2, true), Timestamp::Millis(3));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].size, DataSize::Bytes(2000));  // not triple-counted
}

TEST(JitterBuffer, LateRetransmitOfDecodedFrameIgnored) {
  JitterBuffer buffer;
  buffer.Insert(MakePacket(0, 1, 0, 1, true), Timestamp::Millis(1));
  buffer.Insert(MakePacket(1, 2, 0, 1), Timestamp::Millis(40));
  EXPECT_TRUE(
      buffer.Insert(MakePacket(0, 1, 0, 1, true), Timestamp::Millis(80))
          .empty());
  EXPECT_EQ(buffer.frames_decoded(), 2);
}

TEST(JitterBuffer, NoNacksBelowDecodeFrontier) {
  // Regression: a keyframe resync abandons the frames before it, yet
  // CollectNacks kept requesting their lost sequences — retransmissions
  // of frames that can never be decoded, on a link that is already
  // struggling. Sequences at or below the decode frontier must be
  // skipped.
  JitterBuffer buffer;
  buffer.Insert(MakePacket(0, 1, 0, 1, true), Timestamp::Millis(1));
  // Frame 2 (seqs 1-2) is lost entirely. Frame 3 is a keyframe at
  // seqs 3-4: it resynchronizes the decoder and drops the backlog.
  buffer.Insert(MakePacket(3, 3, 0, 2, true), Timestamp::Millis(80));
  const auto decoded =
      buffer.Insert(MakePacket(4, 3, 1, 2, true), Timestamp::Millis(85));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].frame_id, 3u);
  // Seqs 1-2 belong to the abandoned frame: never NACKed again.
  EXPECT_TRUE(buffer.CollectNacks(Timestamp::Millis(100)).empty());
}

// --- Differential test against the std::set buffer ------------------------

// Frozen copy of JitterBuffer before the bitset: one std::set node per
// received packet index.
class SetJitterBufferReference {
 public:
  std::vector<DecodedFrame> Insert(const net::RtpPacket& packet,
                                   Timestamp now) {
    std::vector<DecodedFrame> decoded;
    const int64_t seq = window_.Insert(packet.sequence_number);
    if (have_decoded_ && packet.frame_id <= last_decoded_frame_) {
      return decoded;
    }
    auto& frame = partial_frames_[packet.frame_id];
    frame.packets_expected = packet.packets_in_frame;
    frame.is_keyframe = packet.is_keyframe;
    frame.min_seq = std::min(frame.min_seq, seq);
    if (frame.packets_received.insert(packet.packet_index).second) {
      frame.size += DataSize::Bytes(packet.payload_size);
    }
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
        } else if (key_resync) {
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
        if (pf.min_seq != INT64_MAX) {
          nack_floor_ = std::max(nack_floor_, pf.min_seq - 1);
        }
        it = partial_frames_.erase(partial_frames_.begin(), std::next(it));
        progressed = true;
        break;
      }
    }
    if (!waiting_for_keyframe_ && have_decoded_ &&
        !partial_frames_.empty() &&
        partial_frames_.rbegin()->first > last_decoded_frame_ + 50) {
      waiting_for_keyframe_ = true;
      waiting_since_ = now;
      nack_floor_ = window_.highest();
      window_.ClearRetries();
    }
    return decoded;
  }

  std::vector<uint16_t> CollectNacks(Timestamp now) {
    return window_.Collect(now, nack_floor_ + 1);
  }

  bool NeedsKeyframe(Timestamp now) const {
    if (!waiting_for_keyframe_) return false;
    if (!have_decoded_) return now - waiting_since_ > TimeDelta::Millis(500);
    return now - waiting_since_ > TimeDelta::Millis(250);
  }

  int64_t frames_decoded() const { return frames_decoded_; }
  int64_t frames_dropped() const { return frames_dropped_; }

 private:
  struct PartialFrame {
    uint16_t packets_expected = 0;
    std::set<uint16_t> packets_received;
    DataSize size;
    bool is_keyframe = false;
    int64_t min_seq = INT64_MAX;
  };

  ReceiveWindow window_{/*max_attempts=*/6, /*max_batch=*/64};
  std::map<uint32_t, PartialFrame> partial_frames_;
  int64_t nack_floor_ = -1;
  uint32_t last_decoded_frame_ = 0;
  bool have_decoded_ = false;
  bool waiting_for_keyframe_ = true;
  Timestamp waiting_since_ = Timestamp::Zero();
  int64_t frames_decoded_ = 0;
  int64_t frames_dropped_ = 0;
};

bool SameFrames(const std::vector<DecodedFrame>& a,
                const std::vector<DecodedFrame>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const DecodedFrame& x, const DecodedFrame& y) {
                      return x.frame_id == y.frame_id && x.size == y.size &&
                             x.is_keyframe == y.is_keyframe &&
                             x.completion_time == y.completion_time;
                    });
}

// Seeded streams of frames, numbered in encode order from just below the
// 16-bit sequence wrap. Each frame's packets arrive shuffled, some twice,
// some lost and most of those retransmitted a frame or more later (a
// keyframe every 30 frames resyncs after the rest), and sometimes
// interleaved with the next frame's. Frames are 1-40 packets, with rare
// ones of 257-400 packets whose indices >= 256 take the spill, and rare
// hostile packets with an arbitrary uint16_t index (duplicates included).
// Decoded frames, drop/decode counts, NACK lists and NeedsKeyframe must
// match the frozen buffer after every packet.
TEST(JitterBufferDifferential, MatchesSetBuffer) {
  int64_t decoded_total = 0;
  int64_t dropped_total = 0;
  int64_t high_index_packets = 0;
  int64_t nacked = 0;
  int64_t keyframe_waits = 0;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    Rng rng(seed);
    SetJitterBufferReference reference;
    JitterBuffer buffer;
    uint16_t seq = static_cast<uint16_t>(65535 - rng.UniformInt(0, 3000));
    Timestamp now = Timestamp::Millis(1);
    std::vector<net::RtpPacket> carry;  // held back to interleave
    std::vector<net::RtpPacket> repairs;  // lost, retransmitted later
    auto deliver = [&](const net::RtpPacket& packet) {
      now += TimeDelta::Micros(rng.UniformInt(0, 4000));
      const auto expected = reference.Insert(packet, now);
      const auto got = buffer.Insert(packet, now);
      high_index_packets += packet.packet_index >= 256;
      if (!SameFrames(got, expected)) return false;
      if (rng.Bernoulli(0.05)) {
        const auto nacks = reference.CollectNacks(now);
        nacked += static_cast<int64_t>(nacks.size());
        if (buffer.CollectNacks(now) != nacks) return false;
      }
      keyframe_waits += reference.NeedsKeyframe(now);
      return buffer.NeedsKeyframe(now) == reference.NeedsKeyframe(now) &&
             buffer.frames_decoded() == reference.frames_decoded() &&
             buffer.frames_dropped() == reference.frames_dropped();
    };
    for (uint32_t frame = 1; frame <= 600; ++frame) {
      const bool huge = rng.Bernoulli(0.02);
      const uint16_t count = static_cast<uint16_t>(
          huge ? rng.UniformInt(257, 400) : rng.UniformInt(1, 40));
      std::vector<net::RtpPacket> packets;
      for (uint16_t index = 0; index < count; ++index) {
        net::RtpPacket p;
        p.ssrc = Ssrc(1);
        p.sequence_number = seq++;
        p.frame_id = frame;
        p.packet_index = index;
        p.packets_in_frame = count;
        p.is_keyframe = frame % 30 == 1;
        p.payload_size = static_cast<uint32_t>(rng.UniformInt(100, 1200));
        if (rng.Bernoulli(0.004)) {  // hostile index
          p.packet_index = static_cast<uint16_t>(rng.UniformInt(0, 65535));
        }
        const double r = rng.NextDouble();
        if (r < 0.02) {
          // Lost; most losses are repaired a frame or two later.
          if (rng.Bernoulli(0.8)) repairs.push_back(p);
          continue;
        }
        packets.push_back(p);
        if (r < 0.07) packets.push_back(p);  // duplicate
      }
      if (huge) {  // duplicates of spilled indices
        for (int i = 0; i < 5; ++i) {
          net::RtpPacket p = packets[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(packets.size()) - 1))];
          p.packet_index = static_cast<uint16_t>(rng.UniformInt(256, 300));
          packets.push_back(p);
        }
      }
      for (size_t i = packets.size(); i > 1; --i) {
        std::swap(packets[i - 1], packets[static_cast<size_t>(rng.UniformInt(
                                      0, static_cast<int64_t>(i) - 1))]);
      }
      packets.insert(packets.begin(), carry.begin(), carry.end());
      carry.clear();
      if (rng.Bernoulli(0.5)) {  // retransmissions of earlier losses
        packets.insert(packets.end(), repairs.begin(), repairs.end());
        repairs.clear();
      }
      if (rng.Bernoulli(0.1) && packets.size() > 2) {
        // The tail of this frame arrives after the next frame's packets.
        const size_t keep = packets.size() / 2;
        carry.assign(packets.begin() + static_cast<std::ptrdiff_t>(keep),
                     packets.end());
        packets.resize(keep);
      }
      for (const auto& p : packets) {
        ASSERT_TRUE(deliver(p)) << "seed " << seed << " frame " << frame
                                << " seq " << p.sequence_number;
      }
    }
    decoded_total += reference.frames_decoded();
    dropped_total += reference.frames_dropped();
  }
  // The streams really decode, drop, spill, NACK and stall on keyframes.
  EXPECT_GT(decoded_total, 3000);
  EXPECT_GT(dropped_total, 3000);
  EXPECT_GT(high_index_packets, 10000);
  EXPECT_GT(nacked, 10000);
  EXPECT_GT(keyframe_waits, 1000);
}

}  // namespace
}  // namespace gso::media
