// One RTP sender on one link (paper §4.2: the client on its uplink, the
// accessing node on each subscriber's downlink). The single place that
// stamps the transport-wide sequence, charges serialized size plus
// UDP/IP headers and registers each packet with the link's SendSideBwe.
#ifndef GSO_TRANSPORT_EGRESS_H_
#define GSO_TRANSPORT_EGRESS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "net/byte_io.h"
#include "net/rtcp_packets.h"
#include "net/rtp_packet.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "transport/send_side_bwe.h"

namespace gso::transport {

// Sends a copy of `data` as one datagram on `link`, charged at its size
// plus UDP/IP headers. Traffic without a transport-wide sequence on links
// without a BWE (node-to-node RTCP relay, shard gossip) uses this directly.
void SendDatagram(sim::Link& link, Timestamp now,
                  std::span<const uint8_t> data);

class Egress {
 public:
  // The link's BWE starts at `start_rate`; `padding_ssrc` marks this
  // sender's probe padding (see SendPadding).
  Egress(sim::EventLoop* loop, DataRate start_rate, Ssrc padding_ssrc,
         sim::Link* link = nullptr);

  void set_link(sim::Link* link) { link_ = link; }
  sim::Link* link() const { return link_; }
  SendSideBwe& bwe() { return bwe_; }
  const SendSideBwe& bwe() const { return bwe_; }

  // Bytes `packet` occupies on the link once SendRtp has stamped it: the
  // pacer charges this before the packet is stamped.
  static DataSize WireSize(net::RtpPacket packet);

  // Stamps the next transport-wide sequence number, registers the packet
  // with the BWE (under `probe_cluster` for probe padding) and sends it,
  // serialized straight into the datagram. Returns the stamped packet.
  net::RtpPacket SendRtp(net::RtpPacket packet,
                         std::optional<int> probe_cluster = std::nullopt);
  // Sends `messages` as one compound, written into a reused buffer and
  // copied into the datagram at its exact size.
  void SendRtcp(const std::vector<net::RtcpMessage>& messages);
  // Sends one probe-padding packet of `cluster`: receivers feed transport
  // feedback from it and drop it.
  void SendPadding(int cluster);
  // Marks a probe as sent now; returns the id of its new cluster.
  int StartProbe(Timestamp now);

 private:
  sim::EventLoop* loop_;
  sim::Link* link_;
  SendSideBwe bwe_;
  Ssrc padding_ssrc_;
  uint16_t next_transport_seq_ = 0;
  int next_probe_cluster_ = 1;
  uint16_t padding_seq_ = 0;
  net::ByteWriter rtcp_writer_;
};

}  // namespace gso::transport

#endif  // GSO_TRANSPORT_EGRESS_H_
