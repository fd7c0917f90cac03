// Tests for RTP serialization/parsing.
#include "net/rtp_packet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace gso::net {
namespace {

RtpPacket Sample() {
  RtpPacket p;
  p.marker = true;
  p.payload_type = 96;
  p.sequence_number = 4242;
  p.timestamp = 900'000;
  p.ssrc = Ssrc(0xDEADBEEF);
  p.transport_sequence = 777;
  p.payload_size = 1200;
  p.frame_id = 31;
  p.packet_index = 2;
  p.packets_in_frame = 3;
  p.is_keyframe = true;
  return p;
}

TEST(RtpPacket, RoundTripAllFields) {
  const RtpPacket original = Sample();
  const auto parsed = RtpPacket::Parse(original.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->marker, original.marker);
  EXPECT_EQ(parsed->payload_type, original.payload_type);
  EXPECT_EQ(parsed->sequence_number, original.sequence_number);
  EXPECT_EQ(parsed->timestamp, original.timestamp);
  EXPECT_EQ(parsed->ssrc, original.ssrc);
  EXPECT_EQ(parsed->transport_sequence, original.transport_sequence);
  EXPECT_EQ(parsed->payload_size, original.payload_size);
  EXPECT_EQ(parsed->frame_id, original.frame_id);
  EXPECT_EQ(parsed->packet_index, original.packet_index);
  EXPECT_EQ(parsed->packets_in_frame, original.packets_in_frame);
  EXPECT_EQ(parsed->is_keyframe, original.is_keyframe);
}

TEST(RtpPacket, RoundTripWithoutExtension) {
  RtpPacket p = Sample();
  p.transport_sequence.reset();
  p.marker = false;
  p.is_keyframe = false;
  const auto parsed = RtpPacket::Parse(p.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->transport_sequence.has_value());
  EXPECT_FALSE(parsed->marker);
  EXPECT_FALSE(parsed->is_keyframe);
}

TEST(RtpPacket, WireSizeAccountsForExtensionAndPayload) {
  RtpPacket p = Sample();
  EXPECT_EQ(p.WireSize(), 12u + 8u + 1200u);
  p.transport_sequence.reset();
  EXPECT_EQ(p.WireSize(), 12u + 1200u);
}

TEST(RtpPacket, SerializedHeaderLayout) {
  const auto data = Sample().Serialize();
  ASSERT_GE(data.size(), 12u);
  EXPECT_EQ(data[0] >> 6, 2);            // version
  EXPECT_TRUE(data[0] & 0x10);           // extension bit
  EXPECT_EQ(data[1], 0x80 | 96);         // marker + payload type
  EXPECT_EQ((data[2] << 8) | data[3], 4242);
}

TEST(RtpPacket, ParseRejectsWrongVersion) {
  auto data = Sample().Serialize();
  data[0] = 0x00;  // version 0
  EXPECT_FALSE(RtpPacket::Parse(data).has_value());
}

TEST(RtpPacket, ParseRejectsTruncated) {
  const auto data = Sample().Serialize();
  for (size_t len : {size_t{0}, size_t{4}, size_t{11}, data.size() - 1}) {
    std::vector<uint8_t> cut(data.begin(), data.begin() + static_cast<long>(len));
    EXPECT_FALSE(RtpPacket::Parse(cut).has_value()) << "len " << len;
  }
}

TEST(RtpPacket, UnknownExtensionIdIsSkipped) {
  // Hand-craft a packet whose extension uses a different id; the parser
  // must skip it and still read the payload descriptor.
  RtpPacket p = Sample();
  auto data = p.Serialize();
  // The one-byte element header sits at offset 16 (12 header + 4 ext hdr).
  data[16] = static_cast<uint8_t>(3 << 4 | 1);  // id 3, length 2
  const auto parsed = RtpPacket::Parse(data);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->transport_sequence.has_value());
  EXPECT_EQ(parsed->frame_id, p.frame_id);
}

// SerializeTo is the one definition of the wire form: it writes exactly
// SerializedSize() bytes, the same ones Serialize() returns.
TEST(RtpPacket, SerializeToWritesSerializeBytes) {
  for (const bool with_extension : {false, true}) {
    RtpPacket p = Sample();
    if (!with_extension) p.transport_sequence.reset();
    const std::vector<uint8_t> expected = p.Serialize();
    EXPECT_EQ(p.SerializedSize(), with_extension ? 33u : 25u);
    ASSERT_EQ(expected.size(), p.SerializedSize());
    std::vector<uint8_t> out(p.SerializedSize() + 8, 0xEE);  // guard tail
    EXPECT_EQ(p.SerializeTo(out.data()), p.SerializedSize());
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin()))
        << "extension " << with_extension;
    for (size_t i = p.SerializedSize(); i < out.size(); ++i) {
      EXPECT_EQ(out[i], 0xEE) << "wrote past the end at " << i;
    }
  }
}

}  // namespace
}  // namespace gso::net
