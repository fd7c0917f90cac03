// Tests for the paced sender.
#include "transport/pacer.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

namespace gso::transport {
namespace {

// A video packet that Egress::WireSize charges at exactly `wire_bytes`.
net::RtpPacket PacketOfWireSize(int64_t wire_bytes, uint16_t sequence = 0) {
  net::RtpPacket packet;
  packet.ssrc = Ssrc(42);
  packet.sequence_number = sequence;
  const int64_t overhead = Egress::WireSize(packet).bytes();
  packet.payload_size = static_cast<uint32_t>(wire_bytes - overhead);
  return packet;
}

// What the sink saw, in release order: the time, the probe cluster of a
// padding packet (nullopt for media) and the media packet itself.
struct Release {
  Timestamp at;
  std::optional<int> probe_cluster;
  net::RtpPacket packet;
};

// A pacer on its own loop whose sink records every release.
struct Harness {
  explicit Harness(DataRate target)
      : pacer(&loop, target,
              {.media =
                   [this](const net::RtpPacket& packet) {
                     releases.push_back({loop.Now(), std::nullopt, packet});
                   },
               .probe =
                   [this](int cluster_id) {
                     releases.push_back({loop.Now(), cluster_id, {}});
                   }}) {}

  std::vector<Timestamp> ReleaseTimes() const {
    std::vector<Timestamp> times;
    for (const auto& r : releases) times.push_back(r.at);
    return times;
  }

  sim::EventLoop loop;
  std::vector<Release> releases;
  Pacer pacer;
};

TEST(Pacer, SpacesPacketsAtPacingRate) {
  // 100 kbps target * 2.5 factor = 250 kbps pacing; 1250 B = 40 ms apart.
  Harness h(DataRate::KilobitsPerSec(100));
  for (int i = 0; i < 4; ++i) h.pacer.Enqueue(PacketOfWireSize(1250));
  h.loop.RunAll();
  const auto sends = h.ReleaseTimes();
  ASSERT_EQ(sends.size(), 4u);
  for (size_t i = 1; i < sends.size(); ++i) {
    EXPECT_EQ(sends[i] - sends[i - 1], TimeDelta::Millis(40)) << i;
  }
}

TEST(Pacer, FirstPacketGoesImmediately) {
  Harness h(DataRate::KilobitsPerSec(100));
  h.pacer.Enqueue(PacketOfWireSize(1000));
  h.loop.RunAll();
  ASSERT_EQ(h.releases.size(), 1u);
  EXPECT_EQ(h.releases[0].at, Timestamp::Zero());
}

TEST(Pacer, RateChangeAffectsSubsequentSpacing) {
  Harness h(DataRate::KilobitsPerSec(100));
  h.pacer.Enqueue(PacketOfWireSize(1250));
  h.pacer.Enqueue(PacketOfWireSize(1250));
  h.loop.RunAll();
  h.pacer.SetTargetRate(DataRate::KilobitsPerSec(200));  // halves the spacing
  h.pacer.Enqueue(PacketOfWireSize(1250));
  h.pacer.Enqueue(PacketOfWireSize(1250));
  h.loop.RunAll();
  const auto sends = h.ReleaseTimes();
  ASSERT_EQ(sends.size(), 4u);
  EXPECT_EQ(sends[1] - sends[0], TimeDelta::Millis(40));
  EXPECT_EQ(sends[3] - sends[2], TimeDelta::Millis(20));
}

TEST(Pacer, ProbeClusterJumpsQueueAndCarriesId) {
  Harness h(DataRate::KilobitsPerSec(50));
  for (int i = 0; i < 3; ++i) h.pacer.Enqueue(PacketOfWireSize(1250));
  h.pacer.SendProbeCluster(7, DataRate::MegabitsPerSec(1), 2,
                           DataSize::Bytes(500));
  EXPECT_EQ(h.pacer.queue_size(), 5u);
  h.loop.RunAll();
  ASSERT_EQ(h.releases.size(), 5u);
  int probes_seen = 0;
  for (size_t i = 0; i < h.releases.size(); ++i) {
    if (h.releases[i].probe_cluster.has_value()) {
      EXPECT_EQ(*h.releases[i].probe_cluster, 7);
      ++probes_seen;
      EXPECT_LT(i, 3u);  // probes overtook most of the media queue
    }
  }
  EXPECT_EQ(probes_seen, 2);
  // The probes are spaced at the probe rate: 500 B at 1 Mbps = 4 ms.
  EXPECT_EQ(h.releases[2].at - h.releases[1].at, TimeDelta::Millis(4));
}

TEST(Pacer, QueueDelayReflectsBacklog) {
  Harness h(DataRate::KilobitsPerSec(100));  // 250 kbps pacing
  for (int i = 0; i < 10; ++i) h.pacer.Enqueue(PacketOfWireSize(1250));
  // 10 x 1250 B = 100 kbit at 250 kbps = 400 ms of backlog.
  EXPECT_NEAR(h.pacer.QueueDelay().ms_f(), 400.0, 1.0);
  EXPECT_EQ(h.pacer.queue_size(), 10u);
  h.loop.RunAll();
  EXPECT_EQ(h.pacer.queue_size(), 0u);
  EXPECT_EQ(h.pacer.QueueDelay(), TimeDelta::Zero());
}

TEST(Pacer, QueueDelayAfterPartialDrainIsRemainingBytesOverRate) {
  const DataRate target = DataRate::KilobitsPerSec(100);
  Harness h(target);
  const std::vector<int64_t> sizes = {1250, 300, 900, 1100, 77};
  for (int64_t size : sizes) h.pacer.Enqueue(PacketOfWireSize(size));
  // A probe cluster is not media backlog: it leaves QueueDelay() alone.
  h.pacer.SendProbeCluster(3, DataRate::MegabitsPerSec(1), 2,
                           DataSize::Bytes(400));
  // Releases at 0 (probe), 3.2 ms (probe), 6.4 ms (1250 B) and 46.4 ms
  // (300 B); the 900 B packet is next, at 56 ms.
  h.loop.RunUntil(Timestamp::Millis(50));
  ASSERT_EQ(h.releases.size(), 4u);
  EXPECT_EQ(h.pacer.queue_size(), 3u);
  const DataSize remaining = DataSize::Bytes(900 + 1100 + 77);
  EXPECT_EQ(h.pacer.QueueDelay(), remaining / (target * kPacingFactor));
  // 2077 B = 16,616 bit at 250 kbps.
  EXPECT_NEAR(h.pacer.QueueDelay().ms_f(), 66.464, 0.001);
}

TEST(Pacer, SinkReceivesEachPacketUnchangedAndInOrder) {
  Harness h(DataRate::KilobitsPerSec(300));
  std::vector<net::RtpPacket> sent;
  for (uint16_t i = 0; i < 6; ++i) {
    net::RtpPacket packet = PacketOfWireSize(200 + 100 * i, 1000 + i);
    packet.marker = i % 2 == 1;
    packet.timestamp = 90000u * i;
    packet.frame_id = i / 2;
    packet.packet_index = i % 2;
    packet.packets_in_frame = 2;
    packet.is_keyframe = i < 2;
    sent.push_back(packet);
    h.pacer.Enqueue(packet);
    if (i == 2) {
      h.pacer.SendProbeCluster(9, DataRate::MegabitsPerSec(2), 3,
                               DataSize::Bytes(400));
    }
  }
  h.loop.RunAll();
  std::vector<net::RtpPacket> media;
  int probes = 0;
  for (const auto& r : h.releases) {
    if (r.probe_cluster) {
      EXPECT_EQ(*r.probe_cluster, 9);
      ++probes;
    } else {
      media.push_back(r.packet);
    }
  }
  EXPECT_EQ(probes, 3);
  ASSERT_EQ(media.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(media[i].Serialize(), sent[i].Serialize()) << i;
    EXPECT_EQ(media[i].payload_size, sent[i].payload_size) << i;
    EXPECT_FALSE(media[i].transport_sequence.has_value()) << i;
  }
}

}  // namespace
}  // namespace gso::transport
