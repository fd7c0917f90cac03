// RTCP packet types used by GSO-Simulcast's reporting and feedback planes.
//
// Implemented wire formats:
//  - Application-defined packets (PT 204, RFC 3550 §6.7), carrying:
//      * SEMB  — sender estimated maximum bitrate (paper §4.2): uplink
//        bandwidth reported in-band from client to accessing node, value
//        encoded mantissa*2^exp following the REMB definition;
//      * GTBR / GTBN — the paper's stream-orchestration TMMBR/TMMBN
//        re-wrapped inside an APP packet to remove the ambiguity with
//        congestion-control TMMBR (paper §4.3). One GTBR carries one entry
//        per SSRC (per simulcast layer) in RFC 5104's MxTBR encoding
//        (17-bit mantissa / 6-bit exponent / 9-bit overhead);
//        mantissa==0 disables the layer.
//  - Generic NACK (RTPFB PT 205 FMT 1) and PLI (PSFB PT 206 FMT 1).
//  - Transport-wide feedback (RTPFB PT 205 FMT 15): per-packet receive
//    timestamps for the GCC-style estimator. We use a simplified fixed-size
//    per-packet encoding (received flag + 0.25 ms delta) rather than the
//    draft's run-length chunks; the information content is identical.
//
// All packets serialize into RFC 3550 compound framing (4-byte headers,
// 32-bit word lengths) and parse back via ParseCompound(). Sub-packets of
// any other type (SR, RR, RFC 5104 TMMBR/TMMBN, REMB, APP with another
// name) are skipped: nothing in the simulated stack sends them.
#ifndef GSO_NET_RTCP_PACKETS_H_
#define GSO_NET_RTCP_PACKETS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace gso::net {

// --- RFC 5104 MxTBR encoding -------------------------------------------

// Encodes a bitrate as (exponent, mantissa) with a 17-bit mantissa.
// Returns the closest representable value of `mantissa * 2^exp`.
struct MxTbr {
  uint8_t exponent = 0;   // 6 bits
  uint32_t mantissa = 0;  // 17 bits
  uint16_t overhead = 0;  // 9 bits, per-packet overhead in bytes

  static MxTbr FromBitrate(DataRate rate, uint16_t overhead = 0);
  DataRate bitrate() const {
    return DataRate::BitsPerSec(static_cast<int64_t>(mantissa) << exponent);
  }
};

// --- Individual packet types --------------------------------------------

struct TmmbrEntry {
  Ssrc ssrc;
  MxTbr max_total_bitrate;
};

// Sender Estimated Maximum Bitrate: the client's sender-side uplink BWE,
// reported in-band in an APP(204) packet (paper §4.2).
struct Semb {
  Ssrc sender_ssrc;
  DataRate bitrate;
};

// GSO stream-orchestration bitrate request: the controller's decision for
// each of a publisher's simulcast layers, delivered by the accessing node.
// mantissa==0 (bitrate zero) disables the layer (paper §4.3).
struct GsoTmmbr {
  Ssrc sender_ssrc;
  uint32_t request_id = 0;  // echoed in the GTBN ack; drives retransmission
  // Solve epoch that produced this config. Echoed in the GTBN ack so the
  // controller can reject an ack from a superseded solve: without the tag,
  // a delayed GTBN for epoch N could mark the epoch-N+1 config delivered.
  uint32_t epoch = 0;
  std::vector<TmmbrEntry> entries;
};

// Acknowledgement of a GsoTmmbr (maps TMMBN, paper §4.3 reliability).
struct GsoTmmbn {
  Ssrc sender_ssrc;
  uint32_t request_id = 0;
  uint32_t epoch = 0;  // echoed from the acknowledged GTBR
  std::vector<TmmbrEntry> entries;
};

// Per-transport receive feedback for the delay-based estimator.
struct TransportFeedback {
  struct PacketResult {
    uint16_t sequence = 0;
    bool received = false;
    // Receive time offset from base_time in 0.25 ms units (valid if received).
    uint32_t delta_250us = 0;
  };
  Ssrc sender_ssrc;
  uint32_t base_time_ms = 0;  // receive clock of the first packet in the batch
  std::vector<PacketResult> packets;
};

// Generic NACK (RFC 4585 §6.2.1, RTPFB FMT 1): retransmission request for
// specific RTP sequence numbers of `media_ssrc`.
struct Nack {
  Ssrc sender_ssrc;
  Ssrc media_ssrc;
  std::vector<uint16_t> sequences;
};

// Picture Loss Indication (RFC 4585 §6.3.1, PSFB FMT 1): the decoder lost
// sync and needs a keyframe on `media_ssrc`.
struct Pli {
  Ssrc sender_ssrc;
  Ssrc media_ssrc;
};

using RtcpMessage = std::variant<Semb, GsoTmmbr, GsoTmmbn, TransportFeedback,
                                 Nack, Pli>;

// --- Compound packet framing --------------------------------------------

class ByteWriter;  // net/byte_io.h

// Serializes messages back-to-back in RFC 3550 compound framing.
std::vector<uint8_t> SerializeCompound(const std::vector<RtcpMessage>& messages);
// Appends the same bytes to `w`; a sender that reuses one writer stops
// allocating once it has seen its largest compound.
void SerializeCompound(const std::vector<RtcpMessage>& messages,
                       ByteWriter& w);

// Parses a compound packet; unknown or malformed sub-packets are skipped.
std::vector<RtcpMessage> ParseCompound(std::span<const uint8_t> data);

// RTP/RTCP demux on one port (RFC 5761 §4): RTCP puts its packet type,
// [200, 206] here, at byte 1, where RTP puts marker|payload_type — at
// most 127 without the marker, at least 224 with it (PT >= 96) — so the
// ranges never collide.
bool IsRtcp(std::span<const uint8_t> data);

}  // namespace gso::net

#endif  // GSO_NET_RTCP_PACKETS_H_
