// Malformed-input hardening for the wire-format parsers. A seeded corpus
// of truncations, bit flips, and random byte blobs is thrown at
// net::ParseCompound and net::SessionDescription::Parse; the contract is
// "skip or reject, never read out of bounds" — the CI sanitizer jobs
// (ASan/UBSan/TSan) turn any violation into a test failure.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/rtcp_packets.h"
#include "net/sdp.h"

namespace gso::net {
namespace {

// Sub-packets of types the stack no longer sends, frozen as the bytes
// their serializers wrote: an RFC 3550 SR and RR with one report block
// each, an RFC 5104 TMMBR, a REMB and an APP with an unknown name. They
// keep the skip path of ParseCompound in the corpus below.
const std::vector<uint8_t> kRetiredSr = {
    0x81, 0xc8, 0x00, 0x0c, 0x00, 0x00, 0x11, 0x11, 0x01, 0x23, 0x45, 0x67,
    0x89, 0xab, 0xcd, 0xef, 0x00, 0x01, 0x5f, 0x90, 0x00, 0x00, 0x00, 0x2a,
    0x00, 0x00, 0x10, 0x92, 0x00, 0x00, 0x22, 0x22, 0x0c, 0x00, 0x01, 0x59,
    0x00, 0x01, 0x09, 0x32, 0x00, 0x00, 0x04, 0xd2, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00};
const std::vector<uint8_t> kRetiredRr = {
    0x81, 0xc9, 0x00, 0x07, 0x00, 0x00, 0x33, 0x33, 0x00, 0x00, 0x44, 0x44,
    0x01, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x04,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
const std::vector<uint8_t> kRetiredTmmbr = {
    0x83, 0xcd, 0x00, 0x04, 0x00, 0x00, 0x55, 0x55, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x66, 0x66, 0x12, 0x49, 0xf0, 0x28};
const std::vector<uint8_t> kRetiredRemb = {
    0x8f, 0xce, 0x00, 0x06, 0x00, 0x00, 0x77, 0x77, 0x00, 0x00, 0x00, 0x00,
    0x52, 0x45, 0x4d, 0x42, 0x02, 0x0b, 0x6e, 0xe8, 0x00, 0x00, 0x88, 0x88,
    0x00, 0x00, 0x99, 0x99};
const std::vector<uint8_t> kUnknownApp = {
    0x89, 0xcc, 0x00, 0x04, 0x00, 0x00, 0x34, 0x56, 0x58, 0x59, 0x5a, 0x57,
    0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};

// A compound packet exercising every RTCP message type we serialize,
// framed by the retired sub-packets above.
std::vector<uint8_t> FullCompound() {
  Semb semb;
  semb.sender_ssrc = Ssrc(0xaaaa);
  semb.bitrate = DataRate::KilobitsPerSec(1500);
  GsoTmmbr gtbr;
  gtbr.sender_ssrc = Ssrc(0xbbbb);
  gtbr.request_id = 7;
  gtbr.epoch = 3;
  gtbr.entries.push_back(
      TmmbrEntry{Ssrc(0xcccc), MxTbr::FromBitrate(DataRate::KilobitsPerSec(800))});
  GsoTmmbn gtbn;
  gtbn.sender_ssrc = Ssrc(0xdddd);
  gtbn.request_id = 7;
  gtbn.epoch = 3;
  TransportFeedback feedback;
  feedback.sender_ssrc = Ssrc(0xeeee);
  feedback.base_time_ms = 1000;
  feedback.packets.push_back(TransportFeedback::PacketResult{10, true, 4});
  feedback.packets.push_back(TransportFeedback::PacketResult{11, false, 0});
  Nack nack;
  nack.sender_ssrc = Ssrc(0x1234);
  nack.media_ssrc = Ssrc(0x5678);
  nack.sequences = {100, 101, 107};
  Pli pli;
  pli.sender_ssrc = Ssrc(0x2345);
  pli.media_ssrc = Ssrc(0x6789);
  std::vector<uint8_t> wire;
  for (const auto* retired : {&kRetiredSr, &kRetiredRr, &kRetiredTmmbr,
                              &kRetiredRemb}) {
    wire.insert(wire.end(), retired->begin(), retired->end());
  }
  const std::vector<uint8_t> known =
      SerializeCompound({semb, gtbr, gtbn, feedback, nack, pli});
  wire.insert(wire.end(), known.begin(), known.end());
  wire.insert(wire.end(), kUnknownApp.begin(), kUnknownApp.end());
  return wire;
}

SessionDescription FullOffer() {
  SessionDescription offer;
  offer.client = ClientId(17);
  SimulcastInfo info;
  info.codec = VideoCodec::kVp9;
  info.max_parallel_streams = 3;
  info.supports_fine_bitrate = false;
  info.layers = {
      {kResolution720p, DataRate::KilobitsPerSec(1800), Ssrc(0x100)},
      {kResolution360p, DataRate::KilobitsPerSec(800), Ssrc(0x101)},
      {kResolution180p, DataRate::KilobitsPerSec(300), Ssrc(0x102)},
  };
  offer.simulcast = info;
  return offer;
}

// Every prefix of a valid compound packet must parse without touching a
// byte past the truncation point. The parser may salvage the intact
// leading sub-packets; it must drop the cut one.
TEST(MalformedInput, RtcpTruncationAtEveryLength) {
  const std::vector<uint8_t> wire = FullCompound();
  const size_t full_count = ParseCompound(wire).size();
  ASSERT_EQ(full_count, 6u);  // the five retired sub-packets are skipped
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    const std::vector<uint8_t> truncated(wire.begin(),
                                         wire.begin() + static_cast<long>(cut));
    const auto parsed = ParseCompound(truncated);
    EXPECT_LE(parsed.size(), full_count) << "cut=" << cut;
  }
}

// Seeded single-bit flips anywhere in the packet: parsing must neither
// crash nor trip the sanitizers, whatever the flip corrupts (length words,
// packet types, counts, payload).
TEST(MalformedInput, RtcpSeededBitFlipCorpus) {
  const std::vector<uint8_t> wire = FullCompound();
  Rng rng(0xf00dull);
  for (int round = 0; round < 2000; ++round) {
    std::vector<uint8_t> mutated = wire;
    const int flips = 1 + static_cast<int>(rng.NextUint64() % 4);
    for (int f = 0; f < flips; ++f) {
      const size_t byte = rng.NextUint64() % mutated.size();
      mutated[byte] ^= static_cast<uint8_t>(1u << (rng.NextUint64() % 8));
    }
    const auto parsed = ParseCompound(mutated);
    // Survivors must round-trip: re-serializing whatever was accepted is
    // itself parseable (no half-validated state escapes the parser).
    if (!parsed.empty()) {
      const auto reparsed = ParseCompound(SerializeCompound(parsed));
      EXPECT_EQ(reparsed.size(), parsed.size()) << "round " << round;
    }
  }
}

// Random byte blobs, including ones that mimic plausible headers.
TEST(MalformedInput, RtcpRandomBlobCorpus) {
  Rng rng(0xbeefull);
  for (int round = 0; round < 1000; ++round) {
    const size_t size = rng.NextUint64() % 256;
    std::vector<uint8_t> blob(size);
    for (auto& b : blob) b = static_cast<uint8_t>(rng.NextUint64());
    if (size >= 2 && (rng.NextUint64() & 1)) {
      blob[0] = 0x80;  // version 2, no padding — a plausible header byte
      blob[1] = static_cast<uint8_t>(200 + rng.NextUint64() % 8);
    }
    ParseCompound(blob);  // must not crash / overread
  }
}

// Oversized declared lengths: a sub-packet whose length word promises more
// words than the buffer holds must be dropped, not followed off the end.
TEST(MalformedInput, RtcpLyingLengthWord) {
  std::vector<uint8_t> wire = FullCompound();
  // The second length byte pair lives at offset 2..3 of the first header.
  wire[2] = 0xff;
  wire[3] = 0xff;
  const auto parsed = ParseCompound(wire);
  EXPECT_LE(parsed.size(), 6u);
}

// Each retired sub-packet parses to nothing on its own, whole or cut.
TEST(MalformedInput, RetiredRtcpTypesParseToNothing) {
  for (const auto* retired : {&kRetiredSr, &kRetiredRr, &kRetiredTmmbr,
                              &kRetiredRemb, &kUnknownApp}) {
    ASSERT_TRUE(IsRtcp(*retired));
    for (size_t cut = 0; cut <= retired->size(); ++cut) {
      const std::vector<uint8_t> prefix(
          retired->begin(), retired->begin() + static_cast<long>(cut));
      EXPECT_TRUE(ParseCompound(prefix).empty()) << "cut=" << cut;
    }
  }
}

TEST(MalformedInput, SdpTruncationAtEveryLength) {
  const std::string text = FullOffer().Serialize();
  ASSERT_TRUE(SessionDescription::Parse(text).has_value());
  for (size_t cut = 0; cut < text.size(); ++cut) {
    const auto parsed = SessionDescription::Parse(text.substr(0, cut));
    if (parsed.has_value()) {
      // Whatever was salvaged must re-serialize and re-parse.
      EXPECT_TRUE(SessionDescription::Parse(parsed->Serialize()).has_value())
          << "cut=" << cut;
    }
  }
}

TEST(MalformedInput, SdpSeededCharacterCorruption) {
  const std::string text = FullOffer().Serialize();
  Rng rng(0xcafeull);
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = text;
    const int edits = 1 + static_cast<int>(rng.NextUint64() % 3);
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.NextUint64() % mutated.size();
      switch (rng.NextUint64() % 3) {
        case 0:  // flip a bit (may create NUL / non-ASCII bytes)
          mutated[pos] = static_cast<char>(
              mutated[pos] ^ static_cast<char>(1 << (rng.NextUint64() % 8)));
          break;
        case 1:  // delete a character (shifts line structure)
          mutated.erase(pos, 1);
          break;
        default:  // duplicate a character
          mutated.insert(pos, 1, mutated[pos]);
          break;
      }
      if (mutated.empty()) break;
    }
    const auto parsed = SessionDescription::Parse(mutated);
    if (parsed.has_value()) {
      EXPECT_TRUE(SessionDescription::Parse(parsed->Serialize()).has_value())
          << "round " << round;
    }
  }
}

TEST(MalformedInput, SdpHostileNumericFields) {
  // Overlong numbers, negatives, and garbage in numeric attribute fields
  // must be rejected or clamped — never UB via out-of-range conversion.
  const std::string base = FullOffer().Serialize();
  const std::vector<std::pair<std::string, std::string>> swaps = {
      {"17", "99999999999999999999999999"},
      {"17", "-1"},
      {"1800000", "184467440737095516150000"},
      {"1800000", "NaN"},
      {"3", "-2147483649"},
  };
  for (const auto& [from, to] : swaps) {
    std::string mutated = base;
    const size_t pos = mutated.find(from);
    if (pos == std::string::npos) continue;
    mutated.replace(pos, from.size(), to);
    SessionDescription::Parse(mutated);  // must not crash / overflow-UB
  }
}

}  // namespace
}  // namespace gso::net
