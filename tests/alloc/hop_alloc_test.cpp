// Allocation discipline of one forwarding hop: after warm-up, carrying a
// packet across a link, keeping sent-packet history and logging arrivals
// for transport feedback allocate nothing, and serializing an RTP packet
// allocates its buffer exactly once. The counting operator new lives in
// warm_alloc_test.cpp for this binary.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/alloc_tracker.h"
#include "common/rng.h"
#include "net/rtp_packet.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "transport/feedback_builder.h"
#include "transport/packet_history.h"

namespace gso {
namespace {

template <typename Fn>
int64_t CountAllocations(Fn&& fn) {
  const int64_t before = alloc::total_allocations();
  fn();
  return alloc::total_allocations() - before;
}

// Link::Send plus delivery: the delivery closure captures {link, seq} and
// fits std::function's inline storage, and the in-flight heap and the
// event queue reuse their capacity. Packets are built before counting.
TEST(HopAlloc, LinkSendAndDeliveryAllocateNothing) {
  if (!alloc::tracker_active()) {
    GTEST_SKIP() << "allocation counting is disabled under sanitizers";
  }
  sim::EventLoop loop;
  sim::LinkConfig config = sim::LinkConfig::Wifi();
  config.jitter_stddev = TimeDelta::Millis(5);  // reorders deliveries
  sim::Link link(&loop, config, Rng(3));
  int64_t delivered = 0;
  link.SetSink([&](const sim::Packet&) { ++delivered; });
  auto burst = [&] {
    std::vector<sim::Packet> packets(64);
    for (auto& p : packets) {
      p.data.assign(33, 0xAB);
      p.wire_size = DataSize::Bytes(61);
    }
    return packets;
  };
  for (int round = 0; round < 2; ++round) {
    std::vector<sim::Packet> packets = burst();
    const int64_t allocations = CountAllocations([&] {
      for (auto& p : packets) link.Send(std::move(p));
      loop.RunAll();
    });
    if (round == 1) {
      EXPECT_EQ(allocations, 0);
    }
  }
  EXPECT_EQ(delivered, 128);
}

// Steady sender: feedback answers each packet 60 sequences later, inside
// the ring, across several wraps of the 16-bit counter.
TEST(HopAlloc, SteadyPacketHistoryAllocatesNothing) {
  if (!alloc::tracker_active()) {
    GTEST_SKIP() << "allocation counting is disabled under sanitizers";
  }
  transport::PacketHistory history;
  int64_t hits = 0;
  auto run = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      history.OnPacketSent(static_cast<uint16_t>(i), Timestamp::Micros(i * 500),
                           DataSize::Bytes(1200));
      if (i >= 60) {
        hits += history
                    .Lookup(static_cast<uint16_t>(i - 60), true,
                            Timestamp::Micros(i * 500))
                    .has_value();
      }
    }
  };
  run(0, 1000);
  EXPECT_EQ(CountAllocations([&] { run(1000, 200000); }), 0);
  EXPECT_EQ(hits, 200000 - 60);
  EXPECT_EQ(history.in_flight_count(), 60u);
}

TEST(HopAlloc, FeedbackArrivalsAllocateNothing) {
  if (!alloc::tracker_active()) {
    GTEST_SKIP() << "allocation counting is disabled under sanitizers";
  }
  transport::FeedbackBuilder builder;
  uint16_t seq = 65000;  // wraps during the run
  auto report_interval = [&] {
    for (int i = 0; i < 100; ++i) {
      if (i % 7 != 3) builder.OnPacketArrived(seq, Timestamp::Millis(i));
      ++seq;
    }
  };
  report_interval();
  ASSERT_TRUE(builder.Build(Ssrc(1)).has_value());
  for (int round = 0; round < 20; ++round) {
    EXPECT_EQ(CountAllocations(report_interval), 0) << "round " << round;
    const auto fb = builder.Build(Ssrc(1));
    ASSERT_TRUE(fb.has_value());
    EXPECT_EQ(fb->packets.size(), 100u);
  }
}

TEST(HopAlloc, RtpSerializeAllocatesOnce) {
  if (!alloc::tracker_active()) {
    GTEST_SKIP() << "allocation counting is disabled under sanitizers";
  }
  net::RtpPacket packet;
  packet.ssrc = Ssrc(42);
  packet.payload_size = 1100;
  for (const bool with_extension : {false, true}) {
    if (with_extension) packet.transport_sequence = 7;
    std::vector<uint8_t> bytes;
    EXPECT_EQ(CountAllocations([&] { bytes = packet.Serialize(); }), 1);
    EXPECT_EQ(bytes.size(), bytes.capacity());
    EXPECT_TRUE(net::RtpPacket::Parse(bytes).has_value());
  }
}

}  // namespace
}  // namespace gso
