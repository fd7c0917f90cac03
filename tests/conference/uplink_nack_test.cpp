// The accessing node's uplink NACK path: when a publisher's packets go
// missing on the way in, the node NACKs that publisher (and nobody else),
// at most 16 sequences per stream per RTCP tick and at most 4 times per
// sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "conference/accessing_node.h"
#include "conference/client.h"
#include "conference/scenarios.h"
#include "net/rtcp_packets.h"
#include "net/rtp_packet.h"

namespace gso::conference {
namespace {

// One accessing node with two attached publishers whose uplinks the test
// plays by hand; each client's downlink captures the RTCP the node sends.
class UplinkHarness {
 public:
  UplinkHarness()
      : node_(&loop_, NodeId(1), ControlMode::kGso, &directory_, Rng(3)) {
    Register(Ssrc(100), ClientId(1), 0);
    Register(Ssrc(101), ClientId(1), 1);
    Register(Ssrc(200), ClientId(2), 0);
    for (int i = 0; i < 2; ++i) {
      const ClientId id(static_cast<uint32_t>(i + 1));
      clients_.push_back(std::make_unique<Client>(
          &loop_, DefaultClient(id.value()), Rng(7 + i)));
      downlinks_.push_back(std::make_unique<sim::Link>(
          &loop_, sim::LinkConfig{}, Rng(11 + i), "down"));
      downlinks_.back()->SetSink([this, id](const sim::Packet& packet) {
        std::map<Ssrc, std::vector<uint16_t>> tick;
        for (const auto& message : net::ParseCompound(packet.data)) {
          if (const auto* nack = std::get_if<net::Nack>(&message)) {
            auto& seqs = tick[nack->media_ssrc];
            seqs.insert(seqs.end(), nack->sequences.begin(),
                        nack->sequences.end());
          }
        }
        for (auto& [ssrc, seqs] : tick) {
          nacks_[id].push_back({ssrc, std::move(seqs)});
        }
      });
      node_.AttachClient(clients_.back().get(), downlinks_.back().get());
    }
    node_.SetControllerWatchdog(TimeDelta::Zero());
    node_.SetProbingEnabled(false);
    node_.Start();
  }

  void Register(Ssrc ssrc, ClientId owner, int layer) {
    StreamInfo info;
    info.ssrc = ssrc;
    info.owner = owner;
    info.layer_index = layer;
    info.resolution = kResolution360p;
    directory_.Register(info);
  }

  void SendVideo(ClientId from, Ssrc ssrc, uint16_t seq) {
    net::RtpPacket rtp;
    rtp.ssrc = ssrc;
    rtp.sequence_number = seq;
    rtp.payload_size = 1000;
    sim::Packet packet;
    packet.data = sim::PacketBytes(rtp.Serialize());
    packet.wire_size = DataSize::Bytes(static_cast<int64_t>(rtp.WireSize()));
    node_.OnClientPacket(from, packet);
  }

  struct TickNack {
    Ssrc ssrc;
    std::vector<uint16_t> sequences;
  };

  sim::EventLoop loop_;
  StreamDirectory directory_;
  AccessingNode node_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::unique_ptr<sim::Link>> downlinks_;
  std::map<ClientId, std::vector<TickNack>> nacks_;  // one entry per tick
};

TEST(UplinkNack, OnlyTheLossyPublisherIsNackedWithinBatchAndRetryBudget) {
  UplinkHarness harness;
  // Publisher 1's stream 100 starts just below the 16-bit wrap and loses a
  // 40-packet burst across it; its stream 101 loses two packets. Publisher
  // 2 loses nothing. Lost packets are never repaired.
  const uint16_t start100 = 65500;
  std::set<uint16_t> lost100;
  for (int i = 30; i < 70; ++i) {
    lost100.insert(static_cast<uint16_t>(start100 + i));
  }
  const std::set<uint16_t> lost101 = {100, 101};
  size_t entries_during_loss = 0;
  for (int i = 0; i < 300; ++i) {
    harness.loop_.RunFor(TimeDelta::Millis(10));
    const auto seq100 = static_cast<uint16_t>(start100 + i);
    const auto seq101 = static_cast<uint16_t>(i);
    if (!lost100.count(seq100)) {
      harness.SendVideo(ClientId(1), Ssrc(100), seq100);
    }
    if (!lost101.count(seq101)) {
      harness.SendVideo(ClientId(1), Ssrc(101), seq101);
    }
    harness.SendVideo(ClientId(2), Ssrc(200), static_cast<uint16_t>(i));
    if (i == 110) {
      entries_during_loss = harness.node_.table_sizes().nack_entries;
    }
  }
  harness.loop_.RunFor(TimeDelta::Millis(200));

  EXPECT_TRUE(harness.nacks_[ClientId(2)].empty());
  std::map<std::pair<Ssrc, uint16_t>, int> times_nacked;
  size_t largest_batch = 0;
  for (const auto& tick : harness.nacks_[ClientId(1)]) {
    ASSERT_TRUE(tick.ssrc == Ssrc(100) || tick.ssrc == Ssrc(101));
    EXPECT_LE(tick.sequences.size(), 16u);
    largest_batch = std::max(largest_batch, tick.sequences.size());
    for (uint16_t seq : tick.sequences) ++times_nacked[{tick.ssrc, seq}];
  }
  EXPECT_EQ(largest_batch, 16u);  // the burst outruns one tick's batch

  std::set<std::pair<Ssrc, uint16_t>> expected_lost;
  for (uint16_t seq : lost100) expected_lost.insert({Ssrc(100), seq});
  for (uint16_t seq : lost101) expected_lost.insert({Ssrc(101), seq});
  int exhausted = 0;
  for (const auto& [key, count] : times_nacked) {
    EXPECT_TRUE(expected_lost.count(key)) << "NACKed a delivered packet";
    EXPECT_LE(count, 4);
    exhausted += count == 4;
  }
  EXPECT_EQ(times_nacked.size(), expected_lost.size());  // every loss NACKed
  EXPECT_GT(exhausted, 0);

  // Retry entries live only while their sequence is inside the window.
  EXPECT_GT(entries_during_loss, 0u);
  EXPECT_EQ(harness.node_.table_sizes().nack_entries, 0u);
}

}  // namespace
}  // namespace gso::conference
