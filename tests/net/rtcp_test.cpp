// Tests for RTCP packet serialization: every message type round-trips
// through compound framing; MxTBR mantissa/exponent encoding; NACK
// PID/BLP packing; unknown sub-packets are skipped; robustness against
// malformed input.
#include "net/rtcp_packets.h"

#include <gtest/gtest.h>

#include "net/rtp_packet.h"

namespace gso::net {
namespace {

template <typename T>
const T* GetSingle(const std::vector<RtcpMessage>& messages) {
  if (messages.size() != 1) return nullptr;
  return std::get_if<T>(&messages[0]);
}

TEST(MxTbr, ExactForSmallValues) {
  const auto v = MxTbr::FromBitrate(DataRate::BitsPerSec(100'000));
  EXPECT_EQ(v.bitrate().bps(), 100'000);
  EXPECT_EQ(v.exponent, 0);
}

TEST(MxTbr, LargeValuesRoundDownWithin2Exp) {
  const int64_t big = 123'456'789;
  const auto v = MxTbr::FromBitrate(DataRate::BitsPerSec(big));
  EXPECT_LE(v.bitrate().bps(), big);
  // Error bounded by 2^exp.
  EXPECT_GT(v.bitrate().bps(), big - (1ll << v.exponent));
  EXPECT_LT(v.mantissa, 1u << 17);
}

TEST(MxTbr, ZeroDisablesStream) {
  const auto v = MxTbr::FromBitrate(DataRate::Zero());
  EXPECT_EQ(v.mantissa, 0u);
  EXPECT_EQ(v.bitrate().bps(), 0);
}

TEST(Rtcp, SembRoundTripPreservesBitrateApproximately) {
  // SEMB uses the REMB 18-bit-mantissa encoding: exact below 2^18 bps,
  // bounded relative error above.
  for (int64_t bps : {50'000ll, 262'143ll, 1'000'000ll, 9'999'999ll,
                      123'456'789ll}) {
    Semb semb;
    semb.sender_ssrc = Ssrc(1);
    semb.bitrate = DataRate::BitsPerSec(bps);
    const auto parsed = ParseCompound(SerializeCompound({semb}));
    const auto* out = GetSingle<Semb>(parsed);
    ASSERT_NE(out, nullptr) << bps;
    EXPECT_LE(out->bitrate.bps(), bps);
    EXPECT_GE(out->bitrate.bps(), bps - (bps >> 17)) << bps;
  }
}

TEST(Rtcp, GsoTmmbrRoundTripWithDisabledLayer) {
  GsoTmmbr gtbr;
  gtbr.sender_ssrc = Ssrc(0xF0000001);
  gtbr.request_id = 99;
  gtbr.entries.push_back(
      {Ssrc(1000), MxTbr::FromBitrate(DataRate::MegabitsPerSecF(1.4))});
  gtbr.entries.push_back({Ssrc(1001), MxTbr::FromBitrate(DataRate::Zero())});
  const auto parsed = ParseCompound(SerializeCompound({gtbr}));
  const auto* out = GetSingle<GsoTmmbr>(parsed);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->request_id, 99u);
  ASSERT_EQ(out->entries.size(), 2u);
  EXPECT_NEAR(static_cast<double>(out->entries[0].max_total_bitrate.bitrate().bps()),
              1.4e6, 16.0);
  // Zero mantissa disables the layer (paper §4.3).
  EXPECT_EQ(out->entries[1].max_total_bitrate.bitrate().bps(), 0);
}

TEST(Rtcp, GsoTmmbnEchoesRequestId) {
  GsoTmmbn ack;
  ack.sender_ssrc = Ssrc(5);
  ack.request_id = 7;
  const auto parsed = ParseCompound(SerializeCompound({ack}));
  const auto* out = GetSingle<GsoTmmbn>(parsed);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->request_id, 7u);
}

TEST(Rtcp, GsoTmmbEpochRoundTrip) {
  // The solve epoch rides both directions of the reliability handshake:
  // the GTBR carries the solve that produced it, the GTBN echoes it so the
  // controller can reject acks of superseded configs.
  GsoTmmbr gtbr;
  gtbr.sender_ssrc = Ssrc(0xF0000001);
  gtbr.request_id = 12;
  gtbr.epoch = 0xDEADBEEF;
  gtbr.entries.push_back(
      {Ssrc(1000), MxTbr::FromBitrate(DataRate::KilobitsPerSec(800))});
  GsoTmmbn gtbn;
  gtbn.sender_ssrc = Ssrc(1000);
  gtbn.request_id = 12;
  gtbn.epoch = 0xDEADBEEF;
  const auto parsed = ParseCompound(SerializeCompound({gtbr, gtbn}));
  ASSERT_EQ(parsed.size(), 2u);
  const auto* req = std::get_if<GsoTmmbr>(&parsed[0]);
  const auto* ack = std::get_if<GsoTmmbn>(&parsed[1]);
  ASSERT_NE(req, nullptr);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(req->epoch, 0xDEADBEEFu);
  ASSERT_EQ(req->entries.size(), 1u);
  EXPECT_EQ(ack->epoch, 0xDEADBEEFu);
}

TEST(Rtcp, TransportFeedbackRoundTrip) {
  TransportFeedback fb;
  fb.sender_ssrc = Ssrc(2);
  fb.base_time_ms = 123'456;
  for (uint16_t i = 0; i < 20; ++i) {
    fb.packets.push_back({i, i % 3 != 0, static_cast<uint32_t>(i) * 17});
  }
  const auto parsed = ParseCompound(SerializeCompound({fb}));
  const auto* out = GetSingle<TransportFeedback>(parsed);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->base_time_ms, fb.base_time_ms);
  ASSERT_EQ(out->packets.size(), 20u);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(out->packets[i].sequence, fb.packets[i].sequence);
    EXPECT_EQ(out->packets[i].received, fb.packets[i].received);
    if (fb.packets[i].received) {
      EXPECT_EQ(out->packets[i].delta_250us, fb.packets[i].delta_250us);
    }
  }
}

TEST(Rtcp, NackPidBlpPacking) {
  Nack nack;
  nack.sender_ssrc = Ssrc(1);
  nack.media_ssrc = Ssrc(2);
  // 100 and 100+k (k<=16) pack into one FCI word; 200 needs another.
  nack.sequences = {100, 101, 105, 116, 200};
  const auto data = SerializeCompound({nack});
  // header(4) + 2 ssrcs(8) + 2 FCI words(8) = 20 bytes.
  EXPECT_EQ(data.size(), 20u);
  const auto parsed = ParseCompound(data);
  const auto* out = GetSingle<Nack>(parsed);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->media_ssrc, Ssrc(2));
  EXPECT_EQ(out->sequences,
            (std::vector<uint16_t>{100, 101, 105, 116, 200}));
}

TEST(Rtcp, NackSequenceWrap) {
  Nack nack;
  nack.sender_ssrc = Ssrc(1);
  nack.media_ssrc = Ssrc(2);
  nack.sequences = {65535, 0, 3};
  const auto parsed = ParseCompound(SerializeCompound({nack}));
  const auto* out = GetSingle<Nack>(parsed);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->sequences, (std::vector<uint16_t>{65535, 0, 3}));
}

TEST(Rtcp, PliRoundTrip) {
  Pli pli{Ssrc(11), Ssrc(22)};
  const auto parsed = ParseCompound(SerializeCompound({pli}));
  const auto* out = GetSingle<Pli>(parsed);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->sender_ssrc, Ssrc(11));
  EXPECT_EQ(out->media_ssrc, Ssrc(22));
}

TEST(Rtcp, UnknownAppNameIsSkipped) {
  // APP(204) "XYZW", subtype 9, 8 payload bytes, between a SEMB and a PLI.
  const std::vector<uint8_t> app = {0x89, 0xcc, 0x00, 0x04, 0x00, 0x00,
                                    0x34, 0x56, 0x58, 0x59, 0x5a, 0x57,
                                    0x01, 0x02, 0x03, 0x04, 0x05, 0x06,
                                    0x07, 0x08};
  std::vector<uint8_t> data =
      SerializeCompound({Semb{Ssrc(1), DataRate::KilobitsPerSec(500)}});
  data.insert(data.end(), app.begin(), app.end());
  const auto pli = SerializeCompound({Pli{Ssrc(2), Ssrc(3)}});
  data.insert(data.end(), pli.begin(), pli.end());
  const auto parsed = ParseCompound(data);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_NE(std::get_if<Semb>(&parsed[0]), nullptr);
  EXPECT_NE(std::get_if<Pli>(&parsed[1]), nullptr);
}

TEST(Rtcp, CompoundPreservesOrderAndCount) {
  std::vector<RtcpMessage> messages;
  messages.push_back(Semb{Ssrc(1), DataRate::KilobitsPerSec(500)});
  messages.push_back(Pli{Ssrc(2), Ssrc(3)});
  Nack nack;
  nack.sender_ssrc = Ssrc(4);
  nack.media_ssrc = Ssrc(5);
  nack.sequences = {9};
  messages.push_back(nack);
  const auto parsed = ParseCompound(SerializeCompound(messages));
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_NE(std::get_if<Semb>(&parsed[0]), nullptr);
  EXPECT_NE(std::get_if<Pli>(&parsed[1]), nullptr);
  EXPECT_NE(std::get_if<Nack>(&parsed[2]), nullptr);
}

TEST(Rtcp, ParseToleratesGarbage) {
  EXPECT_TRUE(ParseCompound({}).empty());
  EXPECT_TRUE(ParseCompound(std::vector<uint8_t>{0x00, 0x01, 0x02}).empty());
  // Valid version but absurd length field: parser must stop cleanly.
  std::vector<uint8_t> bogus = {0x80, 200, 0xFF, 0xFF};
  EXPECT_TRUE(ParseCompound(bogus).empty());
}

TEST(Rtcp, TruncatedCompoundKeepsCompletePrefix) {
  std::vector<RtcpMessage> messages;
  messages.push_back(Semb{Ssrc(1), DataRate::KilobitsPerSec(500)});
  messages.push_back(Pli{Ssrc(2), Ssrc(3)});
  auto data = SerializeCompound(messages);
  data.resize(data.size() - 4);  // cut into the PLI
  const auto parsed = ParseCompound(data);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_NE(std::get_if<Semb>(&parsed[0]), nullptr);
}

TEST(Rtcp, IsRtcpDemuxBoundaries) {
  EXPECT_FALSE(IsRtcp({}));
  EXPECT_FALSE(IsRtcp(std::vector<uint8_t>{0x80}));
  // Byte 1 decides: RTCP packet types span [200, 206].
  EXPECT_FALSE(IsRtcp(std::vector<uint8_t>{0x80, 199}));
  EXPECT_TRUE(IsRtcp(std::vector<uint8_t>{0x80, 200}));
  EXPECT_TRUE(IsRtcp(std::vector<uint8_t>{0x80, 206}));
  EXPECT_FALSE(IsRtcp(std::vector<uint8_t>{0x80, 207}));
  // RTP PT 96 with the marker set puts 224 there: above the RTCP range.
  RtpPacket rtp;
  rtp.payload_type = kVideoPayloadType;
  rtp.marker = true;
  const auto rtp_bytes = rtp.Serialize();
  ASSERT_EQ(rtp_bytes[1], 224);
  EXPECT_FALSE(IsRtcp(rtp_bytes));
  EXPECT_TRUE(IsRtcp(SerializeCompound({Pli{Ssrc(1), Ssrc(2)}})));
}

}  // namespace
}  // namespace gso::net
