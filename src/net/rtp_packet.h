// RTP packet (RFC 3550 §5.1) with the transport-wide sequence-number
// header extension used by transport-wide congestion control.
#ifndef GSO_NET_RTP_PACKET_H_
#define GSO_NET_RTP_PACKET_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.h"

namespace gso::net {

// One-byte header-extension id we register for the transport-wide sequence
// number (draft-holmer-rmcat-transport-wide-cc-extensions).
inline constexpr uint8_t kTransportSequenceExtensionId = 5;

// Payload types every sender in this stack uses (dynamic range, RFC 3551).
inline constexpr uint8_t kVideoPayloadType = 96;
inline constexpr uint8_t kAudioPayloadType = 111;
// Probe padding: receivers feed transport feedback from it and drop it.
inline constexpr uint8_t kPaddingPayloadType = 127;

struct RtpPacket {
  // Fixed header fields.
  bool marker = false;          // set on the last packet of a video frame
  uint8_t payload_type = kVideoPayloadType;
  uint16_t sequence_number = 0;
  uint32_t timestamp = 0;       // media clock (90 kHz video, 48 kHz audio)
  Ssrc ssrc;

  // Transport-wide sequence number carried as a header extension; spans all
  // streams of one sender so the receiver can give per-transport feedback.
  std::optional<uint16_t> transport_sequence;

  // Payload is opaque to the network: we carry size, not media bytes, plus
  // a small descriptor the simulated decoder needs.
  uint32_t payload_size = 0;
  uint32_t frame_id = 0;        // which encoded frame this packet belongs to
  uint16_t packet_index = 0;    // position of this packet within the frame
  uint16_t packets_in_frame = 1;
  bool is_keyframe = false;

  // Serialized wire size: 12-byte header (+8 when the extension is present)
  // + payload.
  size_t WireSize() const;

  // Length of the serialized form: the 12-byte header (+8 with the
  // extension) plus the 13-byte payload descriptor that stands in for the
  // size-only payload.
  size_t SerializedSize() const;
  // Writes the serialized form to `out`, which has room for
  // SerializedSize() bytes; returns that size.
  size_t SerializeTo(uint8_t* out) const;
  std::vector<uint8_t> Serialize() const;
  static std::optional<RtpPacket> Parse(std::span<const uint8_t> data);
};

}  // namespace gso::net

#endif  // GSO_NET_RTP_PACKET_H_
