// Gossip fabric under hostile input: corrupted summaries and acks, and
// truncated or empty datagrams on the control links, are dropped and
// counted; the service keeps running and no shard's view of its peers
// moves.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "service/service.h"
#include "transport/egress.h"

namespace gso::service {
namespace {

constexpr int kShards = 3;

void PutLe(std::vector<uint8_t>& out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

// A summary on the wire: type 1 | sender u32 | seq u64 | occupancy u32 |
// queue depth u32 | queue p99 bits u64, little-endian (29 bytes).
std::vector<uint8_t> Summary(uint32_t sender, uint64_t seq,
                             uint32_t occupancy) {
  std::vector<uint8_t> out = {1};
  PutLe(out, sender, 4);
  PutLe(out, seq, 8);
  PutLe(out, occupancy, 4);
  PutLe(out, 7, 4);
  PutLe(out, 0, 8);
  return out;
}

// An ack on the wire: type 2 | sender u32 | seq u64 (13 bytes).
std::vector<uint8_t> Ack(uint32_t sender, uint64_t seq) {
  std::vector<uint8_t> out = {2};
  PutLe(out, sender, 4);
  PutLe(out, seq, 8);
  return out;
}

std::vector<ShardView> AllViews(GossipFabric& gossip) {
  std::vector<ShardView> views;
  for (int observer = 0; observer < kShards; ++observer) {
    for (int peer = 0; peer < kShards; ++peer) {
      if (observer != peer) views.push_back(gossip.view(observer, peer));
    }
  }
  return views;
}

void ExpectSameViews(const std::vector<ShardView>& before,
                     const std::vector<ShardView>& after) {
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].seq, before[i].seq) << "view " << i;
    EXPECT_EQ(after[i].occupancy, before[i].occupancy) << "view " << i;
    EXPECT_EQ(after[i].queue_depth, before[i].queue_depth) << "view " << i;
    EXPECT_EQ(after[i].queue_p99_us, before[i].queue_p99_us) << "view " << i;
    EXPECT_EQ(after[i].last_heard, before[i].last_heard) << "view " << i;
    EXPECT_EQ(after[i].suspected, before[i].suspected) << "view " << i;
  }
}

TEST(Gossip, MalformedPacketsAreDroppedAndCounted) {
  ServiceConfig config;
  config.num_shards = kShards;
  config.parallel_shards = false;
  OrchestrationService service(config);
  // Summaries go out every 500 ms and are acked within ~15 ms on the
  // lossless control links, so at 2.2 s every view is current and nothing
  // is in flight until the 2.5 s broadcast.
  service.RunFor(TimeDelta::MillisF(2200));
  const std::vector<ShardView> before = AllViews(service.gossip());
  const GossipStats stats_before = service.gossip().stats();
  ASSERT_GT(stats_before.delivered, 0u);
  ASSERT_EQ(stats_before.malformed, 0u);

  // Every datagram rides link 0 -> 1, so shard 1 receives each one as
  // coming from shard 0.
  const std::vector<std::vector<uint8_t>> hostile = {
      Summary(/*sender=*/2, /*seq=*/1000000, /*occupancy=*/77),
      Summary(/*sender=*/0xFFFFFFFFu, /*seq=*/1000000, /*occupancy=*/77),
      Ack(/*sender=*/2, /*seq=*/1000000),
      Ack(/*sender=*/0xFFFFFFFFu, /*seq=*/1000000),
      // A summary and an ack that name the right sender but lost their
      // last byte.
      [] {
        std::vector<uint8_t> summary = Summary(0, 1000000, 77);
        summary.pop_back();
        return summary;
      }(),
      [] {
        std::vector<uint8_t> ack = Ack(0, 1000000);
        ack.pop_back();
        return ack;
      }(),
      {1},
      {},
  };
  sim::Link* link = service.gossip_link(0, 1);
  ASSERT_NE(link, nullptr);
  for (const std::vector<uint8_t>& datagram : hostile) {
    transport::SendDatagram(*link, service.control_loop().Now(), datagram);
  }
  service.RunFor(TimeDelta::Millis(200));  // delivered; no broadcast yet

  const GossipStats& stats = service.gossip().stats();
  EXPECT_EQ(stats.malformed, hostile.size());
  EXPECT_EQ(stats.delivered, stats_before.delivered);
  EXPECT_EQ(stats.acks_delivered, stats_before.acks_delivered);
  ExpectSameViews(before, AllViews(service.gossip()));

  // The fabric keeps working: fresh summaries flow and nobody is suspected.
  service.RunFor(TimeDelta::Seconds(2));
  EXPECT_GT(service.gossip().stats().delivered, stats_before.delivered);
  EXPECT_EQ(service.gossip().stats().malformed, hostile.size());
  EXPECT_EQ(service.gossip().stats().suspicions, 0u);
  for (const ShardView& view : AllViews(service.gossip())) {
    EXPECT_FALSE(view.suspected);
  }
}

}  // namespace
}  // namespace gso::service
