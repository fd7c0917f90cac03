// The accessing node's stale-layer fallback (paper §7 "Design for
// failure"): subscribers of a layer that stops flowing are served from a
// lower layer of the same source. The node resolves each stream's
// fallback candidates once per forwarding table and directory generation;
// these tests change each input in turn and check that the subscribers
// served per packet follow.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "conference/accessing_node.h"
#include "conference/client.h"
#include "conference/scenarios.h"
#include "net/rtp_packet.h"

namespace gso::conference {
namespace {

constexpr Ssrc kLow(100);     // 180p
constexpr Ssrc kMiddle(101);  // 360p
constexpr Ssrc kHigh(102);    // 720p
constexpr Ssrc kOther(400);   // client 4's own camera

// One accessing node in GSO mode with four attached clients. Client 1
// publishes three camera layers; every client's downlink logs, in arrival
// order, which client received a packet of which SSRC. The uplinks are
// played by hand.
class FallbackHarness {
 public:
  FallbackHarness()
      : node_(&loop_, NodeId(1), ControlMode::kGso, &directory_, Rng(3)) {
    Register(kLow, ClientId(1), 0, kResolution180p);
    Register(kMiddle, ClientId(1), 1, kResolution360p);
    Register(kHigh, ClientId(1), 2, kResolution720p);
    Register(kOther, ClientId(4), 0, kResolution360p);
    for (uint32_t id = 1; id <= 4; ++id) {
      clients_.push_back(
          std::make_unique<Client>(&loop_, DefaultClient(id), Rng(7 + id)));
      downlinks_.push_back(std::make_unique<sim::Link>(
          &loop_, sim::LinkConfig{}, Rng(11 + id), "down"));
      downlinks_.back()->SetSink([this, id](const sim::Packet& packet) {
        const auto rtp = net::RtpPacket::Parse(packet.data);
        if (rtp && rtp->payload_type != net::kPaddingPayloadType) {
          received_.push_back({ClientId(id), rtp->ssrc});
        }
      });
      node_.AttachClient(clients_.back().get(), downlinks_.back().get());
    }
    node_.SetControllerWatchdog(TimeDelta::Zero());
    node_.SetProbingEnabled(false);
    node_.Start();
  }

  void Register(Ssrc ssrc, ClientId owner, int layer, Resolution resolution) {
    StreamInfo info;
    info.ssrc = ssrc;
    info.owner = owner;
    info.layer_index = layer;
    info.resolution = resolution;
    directory_.Register(info);
  }

  // Client 3 watches the low layer, client 4 the middle, client 2 the high
  // one; client 1 watches client 4.
  void SetTable() {
    node_.SetForwarding({{kLow, {ClientId(3)}},
                         {kMiddle, {ClientId(4)}},
                         {kHigh, {ClientId(2)}},
                         {kOther, {ClientId(1)}}});
  }

  sim::Packet Video(Ssrc ssrc) {
    net::RtpPacket rtp;
    rtp.ssrc = ssrc;
    rtp.sequence_number = next_seq_[ssrc]++;
    rtp.payload_size = 200;
    sim::Packet packet;
    packet.data = sim::PacketBytes(rtp.Serialize());
    packet.wire_size = DataSize::Bytes(static_cast<int64_t>(rtp.WireSize()));
    return packet;
  }

  void Send(Ssrc ssrc, ClientId from) {
    node_.OnClientPacket(from, Video(ssrc));
  }

  // Three seconds of client 1 sending only on `flowing` (the others go
  // stale after 2 s), then one packet on the low layer: returns who got
  // that last packet, in forwarding order.
  std::vector<ClientId> ServedFromLowAfterStaleness(
      const std::vector<Ssrc>& flowing) {
    for (int i = 0; i < 30; ++i) {
      for (Ssrc ssrc : flowing) Send(ssrc, ClientId(1));
      loop_.RunFor(TimeDelta::Millis(100));
    }
    return ServedFromLow();
  }

  // Who receives one packet sent now on the low layer.
  std::vector<ClientId> ServedFromLow() {
    loop_.RunFor(TimeDelta::Millis(100));
    received_.clear();
    Send(kLow, ClientId(1));
    loop_.RunFor(TimeDelta::Millis(100));
    std::vector<ClientId> served;
    for (const auto& [client, ssrc] : received_) {
      if (ssrc == kLow) served.push_back(client);
    }
    return served;
  }

  struct Arrival {
    ClientId client;
    Ssrc ssrc;
  };

  sim::EventLoop loop_;
  StreamDirectory directory_;
  AccessingNode node_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<sim::Link>> downlinks_;
  std::map<Ssrc, uint16_t> next_seq_;
  std::vector<Arrival> received_;
};

using Served = std::vector<ClientId>;

TEST(StaleFallback, FlowingLayersAreNotSubstituted) {
  FallbackHarness h;
  h.SetTable();
  EXPECT_EQ(h.ServedFromLowAfterStaleness({kLow, kMiddle, kHigh}),
            (Served{ClientId(3)}));
}

// Both higher layers stale: their subscribers follow in SSRC order of the
// stale layers (middle before high), after the low layer's own.
TEST(StaleFallback, StaleHigherLayersAreServedFromTheLowLayer) {
  FallbackHarness h;
  h.SetTable();
  EXPECT_EQ(h.ServedFromLowAfterStaleness({kLow}),
            (Served{ClientId(3), ClientId(4), ClientId(2)}));
  // The middle layer flows again: only the high layer's subscriber stays
  // on the fallback.
  EXPECT_EQ(h.ServedFromLowAfterStaleness({kLow, kMiddle}),
            (Served{ClientId(3), ClientId(2)}));
}

TEST(StaleFallback, FollowsEveryNewForwardingTable) {
  FallbackHarness h;
  h.SetTable();
  EXPECT_EQ(h.ServedFromLowAfterStaleness({kLow, kMiddle}),
            (Served{ClientId(3), ClientId(2)}));
  // The high layer's subscribers change: the fallback serves the new ones.
  h.node_.SetForwarding({{kLow, {ClientId(3)}},
                         {kMiddle, {ClientId(4)}},
                         {kHigh, {ClientId(1), ClientId(2)}}});
  EXPECT_EQ(h.ServedFromLowAfterStaleness({kLow, kMiddle}),
            (Served{ClientId(3), ClientId(1), ClientId(2)}));
  // The high layer leaves the table: nothing to substitute for.
  h.node_.SetForwarding({{kLow, {ClientId(3)}}, {kMiddle, {ClientId(4)}}});
  EXPECT_EQ(h.ServedFromLow(), (Served{ClientId(3)}));
}

TEST(StaleFallback, FollowsADepartedClient) {
  FallbackHarness h;
  h.SetTable();
  EXPECT_EQ(h.ServedFromLowAfterStaleness({kLow}),
            (Served{ClientId(3), ClientId(4), ClientId(2)}));
  // Client 4 leaves: its stream's entry and its subscription go.
  h.node_.OnClientLeft(ClientId(4), {kOther});
  EXPECT_EQ(h.ServedFromLow(), (Served{ClientId(3), ClientId(2)}));
  // The publisher leaves: its layers' entries go, so a straggler of its low
  // layer relayed by a peer node reaches nobody.
  h.node_.OnClientLeft(ClientId(1), {kLow, kMiddle, kHigh});
  h.received_.clear();
  h.node_.OnPeerPacket(NodeId(2), h.Video(kLow));
  h.loop_.RunFor(TimeDelta::Millis(100));
  EXPECT_TRUE(h.received_.empty());
}

TEST(StaleFallback, ResolvesAgainAfterCrashAndRestart) {
  FallbackHarness h;
  h.SetTable();
  EXPECT_EQ(h.ServedFromLowAfterStaleness({kLow, kMiddle}),
            (Served{ClientId(3), ClientId(2)}));
  h.node_.Crash();
  h.node_.Restart();
  // The crash wiped the table: nobody is served until a new one arrives.
  EXPECT_EQ(h.ServedFromLow(), Served{});
  h.SetTable();
  // The crash also wiped the uplink state, so the middle layer is stale
  // until it flows again.
  EXPECT_EQ(h.ServedFromLow(),
            (Served{ClientId(3), ClientId(4), ClientId(2)}));
  EXPECT_EQ(h.ServedFromLowAfterStaleness({kLow, kMiddle}),
            (Served{ClientId(3), ClientId(2)}));
}

TEST(StaleFallback, StopsOnceTheStaleLayerLeavesTheDirectory) {
  FallbackHarness h;
  h.SetTable();
  EXPECT_EQ(h.ServedFromLowAfterStaleness({kLow, kMiddle}),
            (Served{ClientId(3), ClientId(2)}));
  h.directory_.Unregister(kHigh);
  EXPECT_EQ(h.ServedFromLow(), (Served{ClientId(3)}));
  // Registered again, it is a fallback candidate again.
  h.Register(kHigh, ClientId(1), 2, kResolution720p);
  EXPECT_EQ(h.ServedFromLow(), (Served{ClientId(3), ClientId(2)}));
}

}  // namespace
}  // namespace gso::conference
