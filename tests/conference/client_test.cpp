// Focused Client tests using a captured uplink: SEMB reporting triggers,
// GTBR handling + GTBN acknowledgement, local congestion scaling, probing
// padding, audio emission, and the voice-stall metric over received audio.
#include "conference/client.h"

#include <functional>

#include <gtest/gtest.h>

#include "conference/scenarios.h"
#include "net/rtcp_packets.h"
#include "net/rtp_packet.h"

namespace gso::conference {
namespace {

// Harness: one client whose uplink terminates in a capture sink; test code
// plays the role of the accessing node by injecting downlink packets.
class ClientHarness {
 public:
  explicit ClientHarness(ClientConfig config = DefaultClient(1))
      : uplink_(&loop_, sim::LinkConfig{}, Rng(5), "up"),
        client_(&loop_, config, Rng(7)) {
    // Register three camera layers + audio the way the conference node
    // would after negotiation.
    std::vector<Ssrc> camera = {Ssrc(100), Ssrc(101), Ssrc(102)};
    const Resolution res[] = {kResolution720p, kResolution360p,
                              kResolution180p};
    for (int i = 0; i < 3; ++i) {
      StreamInfo info;
      info.ssrc = camera[static_cast<size_t>(i)];
      info.owner = ClientId(1);
      info.layer_index = i;
      info.resolution = res[i];
      directory_.Register(info);
    }
    StreamInfo audio;
    audio.ssrc = Ssrc(200);
    audio.owner = ClientId(1);
    audio.is_audio = true;
    directory_.Register(audio);

    uplink_.SetSink([this](const sim::Packet& packet) {
      if (net::IsRtcp(packet.data)) {
        for (auto& message : net::ParseCompound(packet.data)) {
          rtcp_.push_back(std::move(message));
        }
      } else if (auto parsed = net::RtpPacket::Parse(packet.data)) {
        rtp_.push_back(*parsed);
      }
    });
    client_.SetUplink(&uplink_);
    client_.SetDirectory(&directory_);
    client_.ConfigureStreams(camera, {}, Ssrc(200));
  }

  void Start() {
    client_.Start();
  }

  // Sends an RTCP compound from "the node" to the client.
  void InjectRtcp(const std::vector<net::RtcpMessage>& messages) {
    sim::Packet packet;
    packet.data = sim::PacketBytes(net::SerializeCompound(messages));
    packet.wire_size = DataSize::Bytes(
        static_cast<int64_t>(packet.data.size()));
    client_.OnPacketFromNode(packet);
  }

  template <typename T>
  std::vector<T> Collected() {
    std::vector<T> out;
    for (const auto& message : rtcp_) {
      if (const auto* m = std::get_if<T>(&message)) out.push_back(*m);
    }
    return out;
  }

  sim::EventLoop loop_;
  sim::Link uplink_;
  StreamDirectory directory_;
  Client client_;
  std::vector<net::RtcpMessage> rtcp_;
  std::vector<net::RtpPacket> rtp_;
};

TEST(Client, SendsAudioImmediatelyAndVideoOnlyWhenGranted) {
  ClientHarness harness;
  harness.Start();
  harness.loop_.RunFor(TimeDelta::Seconds(2));
  int audio = 0, video = 0;
  for (const auto& packet : harness.rtp_) {
    if (packet.payload_type == 111) ++audio;
    if (packet.payload_type == 96) ++video;
  }
  EXPECT_NEAR(audio, 100, 3);  // one per 20 ms
  EXPECT_EQ(video, 0);         // GSO mode: nothing granted yet
}

TEST(Client, SembReportedPeriodically) {
  ClientHarness harness;
  harness.Start();
  harness.loop_.RunFor(TimeDelta::Seconds(5));
  const auto sembs = harness.Collected<net::Semb>();
  // Time trigger: about one per second.
  EXPECT_GE(sembs.size(), 4u);
  EXPECT_LE(sembs.size(), 8u);
  for (const auto& semb : sembs) {
    EXPECT_GT(semb.bitrate.bps(), 0);
  }
}

TEST(Client, GtbrEnablesLayersAndIsAcked) {
  ClientHarness harness;
  harness.Start();
  harness.loop_.RunFor(TimeDelta::Millis(500));

  net::GsoTmmbr gtbr;
  gtbr.sender_ssrc = Ssrc(0xF0000000);
  gtbr.request_id = 42;
  gtbr.entries.push_back(
      {Ssrc(101), net::MxTbr::FromBitrate(DataRate::KilobitsPerSec(600))});
  gtbr.entries.push_back(
      {Ssrc(102), net::MxTbr::FromBitrate(DataRate::KilobitsPerSec(200))});
  harness.InjectRtcp({gtbr});
  harness.loop_.RunFor(TimeDelta::Seconds(2));

  // Ack with the echoed request id went out.
  const auto acks = harness.Collected<net::GsoTmmbn>();
  ASSERT_GE(acks.size(), 1u);
  EXPECT_EQ(acks[0].request_id, 42u);

  // Both layers now produce video on their SSRCs.
  std::map<uint32_t, int> per_ssrc;
  for (const auto& packet : harness.rtp_) {
    if (packet.payload_type == 96) per_ssrc[packet.ssrc.value()]++;
  }
  EXPECT_GT(per_ssrc[101], 20);
  EXPECT_GT(per_ssrc[102], 20);
  EXPECT_EQ(per_ssrc[100], 0);  // 720p not granted
  EXPECT_EQ(harness.client_.gtbr_messages_received(), 1);
}

TEST(Client, ZeroMantissaDisablesLayer) {
  ClientHarness harness;
  harness.Start();
  net::GsoTmmbr enable;
  enable.sender_ssrc = Ssrc(1);
  enable.request_id = 1;
  enable.entries.push_back(
      {Ssrc(101), net::MxTbr::FromBitrate(DataRate::KilobitsPerSec(600))});
  harness.InjectRtcp({enable});
  harness.loop_.RunFor(TimeDelta::Seconds(1));
  EXPECT_GT(harness.client_.camera_layer_rate(1).bps(), 0);

  net::GsoTmmbr disable;
  disable.sender_ssrc = Ssrc(1);
  disable.request_id = 2;
  disable.entries.push_back(
      {Ssrc(101), net::MxTbr::FromBitrate(DataRate::Zero())});
  harness.InjectRtcp({disable});
  harness.loop_.RunFor(TimeDelta::Millis(100));
  EXPECT_EQ(harness.client_.camera_layer_rate(1), DataRate::Zero());
}

TEST(Client, NackTriggersRetransmission) {
  ClientHarness harness;
  harness.Start();
  net::GsoTmmbr gtbr;
  gtbr.sender_ssrc = Ssrc(1);
  gtbr.request_id = 1;
  gtbr.entries.push_back(
      {Ssrc(102), net::MxTbr::FromBitrate(DataRate::KilobitsPerSec(200))});
  harness.InjectRtcp({gtbr});
  harness.loop_.RunFor(TimeDelta::Seconds(1));

  // Find a video sequence that went out, then NACK it.
  uint16_t seq = 0;
  bool found = false;
  for (const auto& packet : harness.rtp_) {
    if (packet.ssrc == Ssrc(102)) {
      seq = packet.sequence_number;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  const size_t before = harness.rtp_.size();
  net::Nack nack;
  nack.sender_ssrc = Ssrc(1);
  nack.media_ssrc = Ssrc(102);
  nack.sequences = {seq};
  harness.InjectRtcp({nack});
  harness.loop_.RunFor(TimeDelta::Millis(50));
  int retransmits = 0;
  for (size_t i = before; i < harness.rtp_.size(); ++i) {
    if (harness.rtp_[i].ssrc == Ssrc(102) &&
        harness.rtp_[i].sequence_number == seq) {
      ++retransmits;
    }
  }
  EXPECT_EQ(retransmits, 1);
}

TEST(Client, PliTriggersKeyframe) {
  ClientHarness harness;
  harness.Start();
  net::GsoTmmbr gtbr;
  gtbr.sender_ssrc = Ssrc(1);
  gtbr.request_id = 1;
  gtbr.entries.push_back(
      {Ssrc(101), net::MxTbr::FromBitrate(DataRate::KilobitsPerSec(600))});
  harness.InjectRtcp({gtbr});
  harness.loop_.RunFor(TimeDelta::Seconds(2));  // initial keyframe long gone

  const size_t before = harness.rtp_.size();
  harness.InjectRtcp({net::Pli{Ssrc(1), Ssrc(101)}});
  harness.loop_.RunFor(TimeDelta::Millis(200));
  bool keyframe_seen = false;
  for (size_t i = before; i < harness.rtp_.size(); ++i) {
    if (harness.rtp_[i].ssrc == Ssrc(101) && harness.rtp_[i].is_keyframe) {
      keyframe_seen = true;
    }
  }
  EXPECT_TRUE(keyframe_seen);
}

TEST(Client, TemplateModePublishesWithoutController) {
  auto config = DefaultClient(1);
  config.mode = ControlMode::kTemplate;
  ClientHarness harness(config);
  harness.client_.SetParticipantCount(4);
  harness.Start();
  harness.loop_.RunFor(TimeDelta::Seconds(3));
  int video = 0;
  for (const auto& packet : harness.rtp_) {
    if (packet.payload_type == 96) ++video;
  }
  EXPECT_GT(video, 50);  // template pushes on its own
}

TEST(Client, BuildOfferAdvertisesLadder) {
  ClientHarness harness;
  const auto offer = harness.client_.BuildOffer();
  ASSERT_TRUE(offer.simulcast.has_value());
  EXPECT_EQ(offer.simulcast->layers.size(), 3u);
  EXPECT_EQ(offer.simulcast->layers[0].resolution, kResolution720p);
  EXPECT_TRUE(offer.has_audio);
}

TEST(Client, GsoLadderRespectsFineBitrateCapability) {
  auto fine_config = DefaultClient(1);
  ClientHarness fine(fine_config);
  EXPECT_EQ(fine.client_.GsoCameraLadder().size(), 15u);

  auto coarse_config = DefaultClient(2);
  coarse_config.supports_fine_bitrate = false;
  ClientHarness coarse(coarse_config);
  EXPECT_EQ(coarse.client_.GsoCameraLadder().size(), 3u);
}

// Feeds the client a remote audio stream (SSRC 300): one packet captured
// every 20 ms in [from_ms, to_ms), each arriving 5 ms after capture, except
// the captures `lost` names. Runs the loop to `to_ms` + 100 ms.
void ReceiveAudio(ClientHarness& h, int from_ms, int to_ms,
                  const std::function<bool(int capture_ms)>& lost) {
  for (int c = from_ms; c < to_ms; c += 20) {
    if (lost(c)) continue;
    net::RtpPacket rtp;
    rtp.payload_type = net::kAudioPayloadType;
    rtp.sequence_number = static_cast<uint16_t>(c / 20);
    rtp.timestamp = static_cast<uint32_t>(c) * 48;  // 48 kHz media clock
    rtp.ssrc = Ssrc(300);
    sim::Packet packet;
    packet.data = sim::PacketBytes(rtp.Serialize());
    h.loop_.At(Timestamp::Millis(c + 5),
               [&h, packet] { h.client_.OnPacketFromNode(packet); });
  }
  h.loop_.RunUntil(Timestamp::Millis(to_ms + 100));
}

// The first `n` captures of playback interval `interval` (second) are lost.
std::function<bool(int)> LoseFirst(int interval, int n) {
  return [interval, n](int c) {
    return c / 1000 == interval && c % 1000 < 20 * n;
  };
}

TEST(VoiceStall, CleanAudioHasNoStall) {
  ClientHarness harness;
  ReceiveAudio(harness, 0, 5000, [](int) { return false; });
  EXPECT_DOUBLE_EQ(
      harness.client_.VoiceStallRate(Timestamp::Zero(), Timestamp::Seconds(5)),
      0.0);
}

TEST(VoiceStall, IntervalOverTenPercentLossStalls) {
  // Counted intervals are 1..3 (the stream's first and last are partial).
  // Interval 1 receives 45 of its 50 packets: exactly 10% loss, no stall.
  // Interval 2 receives 44: more than 10% loss, a stall.
  ClientHarness harness;
  const auto lose_5 = LoseFirst(1, 5);
  const auto lose_6 = LoseFirst(2, 6);
  ReceiveAudio(harness, 0, 5000,
               [&](int c) { return lose_5(c) || lose_6(c); });
  EXPECT_DOUBLE_EQ(
      harness.client_.VoiceStallRate(Timestamp::Zero(), Timestamp::Seconds(5)),
      1.0 / 3.0);
}

TEST(VoiceStall, PartialBoundaryIntervalsAreExcluded) {
  // Active from 0.5 s to 3.5 s: intervals 0 and 3 hold only 25 packets
  // each and would read as stalls; only the full intervals 1 and 2 count,
  // and interval 2 stalls.
  ClientHarness harness;
  ReceiveAudio(harness, 500, 3500, LoseFirst(2, 6));
  EXPECT_DOUBLE_EQ(
      harness.client_.VoiceStallRate(Timestamp::Zero(), Timestamp::Seconds(5)),
      0.5);
}

TEST(VoiceStall, TrimQoeHistoryBeforeKeepsWindowedRate) {
  // Intervals 1 and 4 stall. The window [2 s, 6 s) counts intervals 3 and
  // 4; dropping the history before it frees interval counts and leaves
  // the windowed rate unchanged.
  ClientHarness harness;
  const auto lose_1 = LoseFirst(1, 10);
  const auto lose_4 = LoseFirst(4, 10);
  ReceiveAudio(harness, 0, 6000,
               [&](int c) { return lose_1(c) || lose_4(c); });
  const Timestamp start = Timestamp::Seconds(2);
  const Timestamp end = Timestamp::Seconds(6);
  EXPECT_DOUBLE_EQ(harness.client_.VoiceStallRate(start, end), 0.5);
  const size_t before = harness.client_.table_sizes().audio_intervals;
  harness.client_.TrimQoeHistoryBefore(start);
  EXPECT_LT(harness.client_.table_sizes().audio_intervals, before);
  EXPECT_DOUBLE_EQ(harness.client_.VoiceStallRate(start, end), 0.5);
}

}  // namespace
}  // namespace gso::conference
