#include "net/rtcp_packets.h"

#include <algorithm>

#include "common/logging.h"
#include "net/byte_io.h"

namespace gso::net {
namespace {

constexpr uint8_t kRtcpVersion = 2;
constexpr uint8_t kPtFirst = 200;  // SR, the lowest RTCP packet type
constexpr uint8_t kPtApp = 204;
constexpr uint8_t kPtRtpfb = 205;
constexpr uint8_t kPtPsfb = 206;

constexpr uint8_t kRtpfbFmtNack = 1;
constexpr uint8_t kRtpfbFmtTransportFeedback = 15;
constexpr uint8_t kPsfbFmtPli = 1;

constexpr char kNameSemb[4] = {'S', 'E', 'M', 'B'};
constexpr char kNameGtbr[4] = {'G', 'T', 'B', 'R'};
constexpr char kNameGtbn[4] = {'G', 'T', 'B', 'N'};

// Splits a bitrate into (exponent, mantissa) with the given mantissa width.
void EncodeExpMantissa(int64_t bps, int mantissa_bits, uint8_t* exp,
                       uint32_t* mantissa) {
  if (bps < 0) bps = 0;
  uint8_t e = 0;
  uint64_t m = static_cast<uint64_t>(bps);
  const uint64_t max_mantissa = (1ull << mantissa_bits) - 1;
  while (m > max_mantissa) {
    m >>= 1;
    ++e;
  }
  *exp = e;
  *mantissa = static_cast<uint32_t>(m);
}

// Writes the 4-byte RTCP header; `count_or_fmt` is FMT for feedback,
// subtype for APP. `length_words` is body length in 32-bit words.
void WriteHeader(ByteWriter& w, uint8_t count_or_fmt, uint8_t packet_type,
                 uint16_t length_words) {
  w.WriteU8(static_cast<uint8_t>(kRtcpVersion << 6 | (count_or_fmt & 0x1F)));
  w.WriteU8(packet_type);
  w.WriteU16(length_words);
}

uint32_t PackMxTbr(const MxTbr& v) {
  return static_cast<uint32_t>(v.exponent & 0x3F) << 26 |
         (v.mantissa & 0x1FFFF) << 9 | (v.overhead & 0x1FF);
}

MxTbr UnpackMxTbr(uint32_t raw) {
  MxTbr v;
  v.exponent = static_cast<uint8_t>(raw >> 26);
  v.mantissa = (raw >> 9) & 0x1FFFF;
  v.overhead = static_cast<uint16_t>(raw & 0x1FF);
  return v;
}

void WriteTmmbEntries(ByteWriter& w, const std::vector<TmmbrEntry>& entries) {
  for (const auto& e : entries) {
    w.WriteU32(e.ssrc.value());
    w.WriteU32(PackMxTbr(e.max_total_bitrate));
  }
}

std::vector<TmmbrEntry> ReadTmmbEntries(ByteReader& r, size_t count) {
  std::vector<TmmbrEntry> entries;
  // `count` is a wire field: a corrupted packet can claim billions of
  // entries. Each entry needs 8 bytes, so cap the reservation by what the
  // buffer can actually hold (the read loop stops at r.ok() regardless).
  entries.reserve(std::min(count, r.remaining() / 8));
  for (size_t i = 0; i < count && r.ok(); ++i) {
    TmmbrEntry e;
    e.ssrc = Ssrc(r.ReadU32());
    e.max_total_bitrate = UnpackMxTbr(r.ReadU32());
    entries.push_back(e);
  }
  return entries;
}

void SerializeOne(ByteWriter& w, const RtcpMessage& msg);

}  // namespace

MxTbr MxTbr::FromBitrate(DataRate rate, uint16_t overhead) {
  MxTbr v;
  EncodeExpMantissa(rate.bps(), 17, &v.exponent, &v.mantissa);
  v.overhead = overhead & 0x1FF;
  return v;
}

namespace {

void SerializeApp(ByteWriter& w, Ssrc sender, const char name[4],
                  const std::vector<uint8_t>& payload) {
  GSO_CHECK(payload.size() % 4 == 0);
  const uint16_t words = static_cast<uint16_t>(2 + payload.size() / 4);
  WriteHeader(w, /*subtype=*/0, kPtApp, words);
  w.WriteU32(sender.value());
  w.WriteString4(name);
  w.WriteBytes(payload.data(), payload.size());
}

void SerializeSemb(ByteWriter& w, const Semb& semb) {
  ByteWriter body;
  uint8_t exp = 0;
  uint32_t mantissa = 0;
  EncodeExpMantissa(semb.bitrate.bps(), 18, &exp, &mantissa);
  body.WriteU8(0);  // reserved
  body.WriteU24(static_cast<uint32_t>(exp) << 18 | mantissa);
  SerializeApp(w, semb.sender_ssrc, kNameSemb, body.data());
}

void SerializeGsoTmmb(ByteWriter& w, Ssrc sender, uint32_t request_id,
                      uint32_t epoch, const char name[4],
                      const std::vector<TmmbrEntry>& entries) {
  ByteWriter body;
  body.WriteU32(request_id);
  body.WriteU32(epoch);
  body.WriteU32(static_cast<uint32_t>(entries.size()));
  WriteTmmbEntries(body, entries);
  SerializeApp(w, sender, name, body.data());
}

void SerializeNack(ByteWriter& w, const Nack& nack) {
  // Encode sequences as RFC 4585 (PID, BLP) pairs: each FCI word covers a
  // base sequence plus a 16-bit bitmap of the following sequences.
  std::vector<std::pair<uint16_t, uint16_t>> fci;
  for (uint16_t seq : nack.sequences) {
    bool packed = false;
    for (auto& [pid, blp] : fci) {
      const uint16_t delta = static_cast<uint16_t>(seq - pid);
      if (delta >= 1 && delta <= 16) {
        blp = static_cast<uint16_t>(blp | (1u << (delta - 1)));
        packed = true;
        break;
      }
      if (seq == pid) {
        packed = true;
        break;
      }
    }
    if (!packed) fci.emplace_back(seq, 0);
  }
  const uint16_t words = static_cast<uint16_t>(2 + fci.size());
  WriteHeader(w, kRtpfbFmtNack, kPtRtpfb, words);
  w.WriteU32(nack.sender_ssrc.value());
  w.WriteU32(nack.media_ssrc.value());
  for (const auto& [pid, blp] : fci) {
    w.WriteU16(pid);
    w.WriteU16(blp);
  }
}

void SerializePli(ByteWriter& w, const Pli& pli) {
  WriteHeader(w, kPsfbFmtPli, kPtPsfb, 2);
  w.WriteU32(pli.sender_ssrc.value());
  w.WriteU32(pli.media_ssrc.value());
}

void SerializeTransportFeedback(ByteWriter& w, const TransportFeedback& fb) {
  const uint16_t words =
      static_cast<uint16_t>(2 + 2 + 2 * fb.packets.size());
  WriteHeader(w, kRtpfbFmtTransportFeedback, kPtRtpfb, words);
  w.WriteU32(fb.sender_ssrc.value());
  w.WriteU32(0);  // media source unused
  w.WriteU32(fb.base_time_ms);
  w.WriteU16(static_cast<uint16_t>(fb.packets.size()));
  w.WriteU16(0);  // padding
  for (const auto& p : fb.packets) {
    w.WriteU16(p.sequence);
    w.WriteU8(p.received ? 1 : 0);
    w.WriteU8(0);  // padding
    w.WriteU32(p.delta_250us);
  }
}

void SerializeOne(ByteWriter& w, const RtcpMessage& msg) {
  std::visit(
      [&w](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Semb>) {
          SerializeSemb(w, m);
        } else if constexpr (std::is_same_v<T, GsoTmmbr>) {
          SerializeGsoTmmb(w, m.sender_ssrc, m.request_id, m.epoch, kNameGtbr,
                           m.entries);
        } else if constexpr (std::is_same_v<T, GsoTmmbn>) {
          SerializeGsoTmmb(w, m.sender_ssrc, m.request_id, m.epoch, kNameGtbn,
                           m.entries);
        } else if constexpr (std::is_same_v<T, TransportFeedback>) {
          SerializeTransportFeedback(w, m);
        } else if constexpr (std::is_same_v<T, Nack>) {
          SerializeNack(w, m);
        } else if constexpr (std::is_same_v<T, Pli>) {
          SerializePli(w, m);
        }
      },
      msg);
}

// Parses the APP names this stack sends (SEMB, GTBR, GTBN); any other
// name is skipped.
std::optional<RtcpMessage> ParseApp(ByteReader& r, size_t body_bytes) {
  if (body_bytes < 8) return std::nullopt;
  const Ssrc sender(r.ReadU32());
  const std::string name = r.ReadString4();
  const size_t payload_bytes = body_bytes - 8;

  if (name == std::string(kNameSemb, 4) && payload_bytes >= 4) {
    r.Skip(1);  // reserved
    const uint32_t packed = r.ReadU24();
    r.Skip(payload_bytes - 4);
    Semb semb;
    semb.sender_ssrc = sender;
    const uint8_t exp = static_cast<uint8_t>(packed >> 18);
    const uint32_t mantissa = packed & 0x3FFFF;
    semb.bitrate =
        DataRate::BitsPerSec(static_cast<int64_t>(mantissa) << exp);
    return semb;
  }
  if ((name == std::string(kNameGtbr, 4) ||
       name == std::string(kNameGtbn, 4)) &&
      payload_bytes >= 12) {
    const uint32_t request_id = r.ReadU32();
    const uint32_t epoch = r.ReadU32();
    const uint32_t count = r.ReadU32();
    if (payload_bytes < 12 + 8 * static_cast<size_t>(count)) {
      return std::nullopt;
    }
    auto entries = ReadTmmbEntries(r, count);
    r.Skip(payload_bytes - 12 - 8 * static_cast<size_t>(count));
    if (name == std::string(kNameGtbr, 4)) {
      GsoTmmbr m;
      m.sender_ssrc = sender;
      m.request_id = request_id;
      m.epoch = epoch;
      m.entries = std::move(entries);
      return m;
    }
    GsoTmmbn m;
    m.sender_ssrc = sender;
    m.request_id = request_id;
    m.epoch = epoch;
    m.entries = std::move(entries);
    return m;
  }
  return std::nullopt;
}

}  // namespace

std::vector<uint8_t> SerializeCompound(
    const std::vector<RtcpMessage>& messages) {
  ByteWriter w;
  SerializeCompound(messages, w);
  return w.Take();
}

void SerializeCompound(const std::vector<RtcpMessage>& messages,
                       ByteWriter& w) {
  for (const auto& m : messages) SerializeOne(w, m);
}

std::vector<RtcpMessage> ParseCompound(std::span<const uint8_t> data) {
  std::vector<RtcpMessage> out;
  size_t offset = 0;
  while (offset + 4 <= data.size()) {
    ByteReader header(data.data() + offset, data.size() - offset);
    const uint8_t b0 = header.ReadU8();
    const uint8_t pt = header.ReadU8();
    const uint16_t length_words = header.ReadU16();
    if ((b0 >> 6) != kRtcpVersion) break;
    const uint8_t count_or_fmt = b0 & 0x1F;
    const size_t total_bytes = 4 * (static_cast<size_t>(length_words) + 1);
    if (offset + total_bytes > data.size()) break;
    const size_t body_bytes = total_bytes - 4;
    ByteReader r(data.data() + offset + 4, body_bytes);

    switch (pt) {
      case kPtRtpfb: {
        const Ssrc sender(r.ReadU32());
        const Ssrc media(r.ReadU32());
        if (count_or_fmt == kRtpfbFmtNack) {
          Nack nack;
          nack.sender_ssrc = sender;
          nack.media_ssrc = media;
          const size_t fci_words = (body_bytes - 8) / 4;
          for (size_t i = 0; i < fci_words && r.ok(); ++i) {
            const uint16_t pid = r.ReadU16();
            const uint16_t blp = r.ReadU16();
            nack.sequences.push_back(pid);
            for (int bit = 0; bit < 16; ++bit) {
              if (blp & (1u << bit)) {
                nack.sequences.push_back(
                    static_cast<uint16_t>(pid + bit + 1));
              }
            }
          }
          if (r.ok()) out.push_back(std::move(nack));
        } else if (count_or_fmt == kRtpfbFmtTransportFeedback) {
          TransportFeedback fb;
          fb.sender_ssrc = sender;
          fb.base_time_ms = r.ReadU32();
          const uint16_t n = r.ReadU16();
          r.Skip(2);
          for (uint16_t i = 0; i < n && r.ok(); ++i) {
            TransportFeedback::PacketResult p;
            p.sequence = r.ReadU16();
            p.received = r.ReadU8() != 0;
            r.Skip(1);
            p.delta_250us = r.ReadU32();
            fb.packets.push_back(p);
          }
          if (r.ok()) out.push_back(std::move(fb));
        }
        break;
      }
      case kPtPsfb: {
        if (count_or_fmt == kPsfbFmtPli && body_bytes >= 8) {
          Pli pli;
          pli.sender_ssrc = Ssrc(r.ReadU32());
          pli.media_ssrc = Ssrc(r.ReadU32());
          out.push_back(pli);
        }
        break;
      }
      case kPtApp: {
        auto parsed = ParseApp(r, body_bytes);
        if (parsed && r.ok()) out.push_back(std::move(*parsed));
        break;
      }
      default:
        break;  // unknown packet type: skip
    }
    offset += total_bytes;
  }
  return out;
}

bool IsRtcp(std::span<const uint8_t> data) {
  return data.size() >= 2 && data[1] >= kPtFirst && data[1] <= kPtPsfb;
}

}  // namespace gso::net
