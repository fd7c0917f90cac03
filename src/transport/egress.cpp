#include "transport/egress.h"

#include <utility>

namespace gso::transport {
namespace {

// UDP (8 B) + IPv4 (20 B) headers.
constexpr int64_t kUdpIpOverheadBytes = 28;

}  // namespace

void SendDatagram(sim::Link& link, Timestamp now,
                  std::span<const uint8_t> data) {
  const DataSize wire = DataSize::Bytes(static_cast<int64_t>(data.size()) +
                                        kUdpIpOverheadBytes);
  link.Send(sim::Packet{sim::PacketBytes(data), wire, now});
}

Egress::Egress(sim::EventLoop* loop, DataRate start_rate, Ssrc padding_ssrc,
               sim::Link* link)
    : loop_(loop),
      link_(link),
      bwe_(start_rate),
      padding_ssrc_(padding_ssrc) {}

DataSize Egress::WireSize(net::RtpPacket packet) {
  packet.transport_sequence = 0;
  return DataSize::Bytes(static_cast<int64_t>(packet.WireSize()) +
                         kUdpIpOverheadBytes);
}

net::RtpPacket Egress::SendRtp(net::RtpPacket packet,
                               std::optional<int> probe_cluster) {
  const Timestamp now = loop_->Now();
  packet.transport_sequence = next_transport_seq_++;
  const DataSize wire = WireSize(packet);
  bwe_.OnPacketSent(*packet.transport_sequence, now, wire, probe_cluster);
  sim::Packet datagram{{}, wire, now};
  packet.SerializeTo(datagram.data.Reset(packet.SerializedSize()));
  link_->Send(std::move(datagram));
  return packet;
}

void Egress::SendRtcp(const std::vector<net::RtcpMessage>& messages) {
  rtcp_writer_.Clear();
  net::SerializeCompound(messages, rtcp_writer_);
  SendDatagram(*link_, loop_->Now(), rtcp_writer_.data());
}

void Egress::SendPadding(int cluster) {
  net::RtpPacket padding;
  padding.payload_type = net::kPaddingPayloadType;
  padding.ssrc = padding_ssrc_;
  padding.sequence_number = padding_seq_++;
  padding.payload_size = kProbePacketBytes;
  padding.packets_in_frame = 1;
  SendRtp(padding, cluster);
}

int Egress::StartProbe(Timestamp now) {
  bwe_.OnProbeSent(now);
  return next_probe_cluster_++;
}

}  // namespace gso::transport
