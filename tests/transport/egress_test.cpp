// Tests for the one-link RTP sender: transport-wide stamping, wire sizing,
// BWE registration of probe padding, and RTCP sizing.
#include "transport/egress.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "transport/feedback_builder.h"

namespace gso::transport {
namespace {

constexpr int64_t kUdpIpBytes = 28;

class EgressTest : public ::testing::Test {
 protected:
  EgressTest()
      : link_(&loop_, sim::LinkConfig{}, Rng(1)),
        egress_(&loop_, DataRate::KilobitsPerSec(300), Ssrc(0x80000007u),
                &link_) {
    link_.SetSink([this](const sim::Packet& p) {
      delivered_.push_back(p);
      arrivals_.push_back(loop_.Now());
    });
  }

  static net::RtpPacket Media(uint32_t payload_size) {
    net::RtpPacket packet;
    packet.payload_type = net::kVideoPayloadType;
    packet.ssrc = Ssrc(101);
    packet.payload_size = payload_size;
    return packet;
  }

  sim::EventLoop loop_;
  sim::Link link_;
  Egress egress_;
  std::vector<sim::Packet> delivered_;
  std::vector<Timestamp> arrivals_;
};

TEST_F(EgressTest, TransportSequenceIncrementsAndWraps) {
  for (int i = 0; i < 65536; ++i) {
    const auto sent = egress_.SendRtp(Media(100));
    ASSERT_EQ(sent.transport_sequence, static_cast<uint16_t>(i));
  }
  EXPECT_EQ(egress_.SendRtp(Media(100)).transport_sequence, 0);
  EXPECT_EQ(egress_.SendRtp(Media(100)).transport_sequence, 1);
}

// SendRtp serializes straight into the datagram: the bytes on the wire
// are Serialize() of the stamped packet.
TEST_F(EgressTest, DatagramHoldsTheStampedPacketsBytes) {
  net::RtpPacket packet = Media(900);
  packet.sequence_number = 77;
  packet.frame_id = 12;
  packet.is_keyframe = true;
  const auto sent = egress_.SendRtp(packet);
  loop_.RunAll();
  ASSERT_EQ(delivered_.size(), 1u);
  const sim::PacketBytes& bytes = delivered_[0].data;
  EXPECT_EQ(std::vector<uint8_t>(bytes.begin(), bytes.end()),
            sent.Serialize());
}

TEST_F(EgressTest, WireSizeIsStampedRtpPlusUdpIp) {
  const net::RtpPacket packet = Media(1000);
  const auto sent = egress_.SendRtp(packet);
  loop_.RunAll();
  ASSERT_EQ(delivered_.size(), 1u);
  const sim::Packet& wire = delivered_[0];
  EXPECT_EQ(wire.wire_size,
            DataSize::Bytes(static_cast<int64_t>(sent.WireSize()) +
                            kUdpIpBytes));
  // The pacer sizes the unstamped packet; it must charge the same bytes.
  EXPECT_EQ(wire.wire_size, Egress::WireSize(packet));
  EXPECT_EQ(wire.first_send_time, Timestamp::Zero());
  const auto parsed = net::RtpPacket::Parse(wire.data);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->transport_sequence, sent.transport_sequence);
  EXPECT_EQ(parsed->payload_size, 1000u);
}

TEST_F(EgressTest, ProbePaddingClusterRaisesEstimate) {
  // A 2 Mbps bottleneck: the padding train arrives at the capacity
  // spacing, so the cluster measures ~2 Mbps against a 300 kbps start.
  link_.SetCapacity(DataRate::MegabitsPerSec(2));
  const DataRate before = egress_.bwe().target_rate();
  const int cluster = egress_.StartProbe(loop_.Now());
  for (int i = 0; i < kProbePacketCount; ++i) egress_.SendPadding(cluster);

  FeedbackBuilder receiver;
  loop_.RunAll();
  ASSERT_EQ(delivered_.size(), static_cast<size_t>(kProbePacketCount));
  for (size_t i = 0; i < delivered_.size(); ++i) {
    const auto padding = net::RtpPacket::Parse(delivered_[i].data);
    ASSERT_TRUE(padding.has_value());
    EXPECT_EQ(padding->payload_type, net::kPaddingPayloadType);
    EXPECT_EQ(padding->ssrc, Ssrc(0x80000007u));
    EXPECT_EQ(padding->sequence_number, i);
    EXPECT_EQ(padding->payload_size,
              static_cast<uint32_t>(kProbePacketBytes));
    receiver.OnPacketArrived(*padding->transport_sequence, arrivals_[i]);
  }
  const auto feedback = receiver.Build(Ssrc(1));
  ASSERT_TRUE(feedback.has_value());
  egress_.bwe().OnFeedback(*feedback, loop_.Now());
  EXPECT_GT(egress_.bwe().target_rate(), DataRate::MegabitsPerSec(1));
  EXPECT_GT(egress_.bwe().target_rate(), before);
}

TEST_F(EgressTest, RtcpIsChargedAtSerializedSizePlusUdpIp) {
  const std::vector<net::RtcpMessage> messages = {
      net::Pli{Ssrc(1), Ssrc(101)},
      net::Nack{Ssrc(1), Ssrc(101), {3, 4, 9}}};
  const auto bytes = net::SerializeCompound(messages);
  egress_.SendRtcp(messages);
  SendDatagram(link_, loop_.Now(), bytes);  // the BWE-less relay path
  loop_.RunAll();
  ASSERT_EQ(delivered_.size(), 2u);
  for (const sim::Packet& wire : delivered_) {
    EXPECT_EQ(std::vector<uint8_t>(wire.data.begin(), wire.data.end()),
              bytes);
    EXPECT_TRUE(net::IsRtcp(wire.data));
    EXPECT_EQ(wire.wire_size, DataSize::Bytes(static_cast<int64_t>(
                                                  bytes.size()) +
                                              kUdpIpBytes));
  }
}

}  // namespace
}  // namespace gso::transport
