#include "net/rtp_packet.h"

#include "net/byte_io.h"

namespace gso::net {
namespace {

constexpr uint8_t kRtpVersion = 2;
constexpr uint16_t kOneByteExtensionProfile = 0xBEDE;  // RFC 8285
// Simulation payload descriptor appended after the header in place of the
// encoded media bytes:
// frame_id(4) + payload_size(4) + packet_index(2) + packets_in_frame(2)
// + flags(1).
constexpr size_t kPayloadDescriptorSize = 13;
constexpr uint8_t kFlagKeyframe = 0x01;

}  // namespace

size_t RtpPacket::WireSize() const {
  return 12 + (transport_sequence ? 8u : 0u) + payload_size;
}

size_t RtpPacket::SerializedSize() const {
  return 12 + (transport_sequence ? 8u : 0u) + kPayloadDescriptorSize;
}

size_t RtpPacket::SerializeTo(uint8_t* out) const {
  const bool has_ext = transport_sequence.has_value();
  BufferWriter w(out);
  w.WriteU8(static_cast<uint8_t>(kRtpVersion << 6 | (has_ext ? 0x10 : 0)));
  w.WriteU8(static_cast<uint8_t>((marker ? 0x80 : 0) | payload_type));
  w.WriteU16(sequence_number);
  w.WriteU32(timestamp);
  w.WriteU32(ssrc.value());
  if (has_ext) {
    w.WriteU16(kOneByteExtensionProfile);
    w.WriteU16(1);  // one 32-bit word of extension data
    w.WriteU8(static_cast<uint8_t>(kTransportSequenceExtensionId << 4 | 1));
    w.WriteU16(*transport_sequence);
    w.WriteU8(0);  // padding to the word boundary
  }
  w.WriteU32(frame_id);
  w.WriteU32(payload_size);
  w.WriteU16(packet_index);
  w.WriteU16(packets_in_frame);
  w.WriteU8(is_keyframe ? kFlagKeyframe : 0);
  return w.size();
}

std::vector<uint8_t> RtpPacket::Serialize() const {
  std::vector<uint8_t> bytes(SerializedSize());
  SerializeTo(bytes.data());
  return bytes;
}

std::optional<RtpPacket> RtpPacket::Parse(std::span<const uint8_t> data) {
  ByteReader r(data);
  RtpPacket p;
  const uint8_t b0 = r.ReadU8();
  if ((b0 >> 6) != kRtpVersion) return std::nullopt;
  const bool has_ext = (b0 & 0x10) != 0;
  const uint8_t b1 = r.ReadU8();
  p.marker = (b1 & 0x80) != 0;
  p.payload_type = b1 & 0x7F;
  p.sequence_number = r.ReadU16();
  p.timestamp = r.ReadU32();
  p.ssrc = Ssrc(r.ReadU32());
  if (has_ext) {
    const uint16_t profile = r.ReadU16();
    const uint16_t words = r.ReadU16();
    if (profile != kOneByteExtensionProfile) {
      r.Skip(words * 4u);
    } else {
      size_t consumed = 0;
      while (consumed < words * 4u && r.ok()) {
        const uint8_t header = r.ReadU8();
        ++consumed;
        if (header == 0) continue;  // padding
        const uint8_t id = header >> 4;
        const size_t len = static_cast<size_t>(header & 0x0F) + 1;
        if (id == kTransportSequenceExtensionId && len == 2) {
          p.transport_sequence = r.ReadU16();
        } else {
          r.Skip(len);
        }
        consumed += len;
      }
    }
  }
  if (r.remaining() < kPayloadDescriptorSize) return std::nullopt;
  p.frame_id = r.ReadU32();
  p.payload_size = r.ReadU32();
  p.packet_index = r.ReadU16();
  p.packets_in_frame = r.ReadU16();
  p.is_keyframe = (r.ReadU8() & kFlagKeyframe) != 0;
  if (!r.ok()) return std::nullopt;
  return p;
}

}  // namespace gso::net
