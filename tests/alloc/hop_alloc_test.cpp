// Allocation discipline of one forwarding hop: after warm-up, the event
// loop's periodic tasks and owner churn, carrying a packet across a link,
// sending RTP through an Egress, keeping sent-packet history, caching
// packets for retransmission, logging arrivals for transport feedback,
// assembling a frame's packets and tracking a stream's NACK state allocate
// nothing; an RTCP compound costs at most its one datagram copy, and
// serializing an RTP packet to a vector allocates that vector exactly once.
// The counting operator new lives in warm_alloc_test.cpp for this binary.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/alloc_tracker.h"
#include "common/rng.h"
#include "common/sequence.h"
#include "media/jitter_buffer.h"
#include "media/rtx_cache.h"
#include "net/rtcp_packets.h"
#include "net/rtp_packet.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "transport/egress.h"
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

// Link::Send plus delivery: the delivery closure captures {link, slot} and
// fits std::function's inline storage, and the link's slots and the event
// loop's heap and slab reuse their capacity. Packets are built before
// counting.
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
      p.data = sim::PacketBytes(std::vector<uint8_t>(33, 0xAB));
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

// Periodic tasks re-arm their own slot: a period costs no allocation, even
// for a task whose closure is too large for std::function's inline storage.
TEST(HopAlloc, PeriodicTasksAllocateNothing) {
  if (!alloc::tracker_active()) {
    GTEST_SKIP() << "allocation counting is disabled under sanitizers";
  }
  sim::EventLoop loop;
  int64_t ticks = 0;
  for (int i = 1; i <= 4; ++i) {
    loop.Every(TimeDelta::Millis(i), [&ticks] {
      ++ticks;
      return true;
    });
  }
  std::vector<int64_t> history(8, 0);
  loop.Every(TimeDelta::Millis(3), [&ticks, &history, a = int64_t{1},
                                    b = int64_t{2}, c = int64_t{3}] {
    history[static_cast<size_t>(ticks % 8)] += a + b + c;
    return true;
  });
  loop.RunUntil(Timestamp::Millis(100));
  const int64_t warm = ticks;
  EXPECT_EQ(CountAllocations([&] { loop.RunUntil(Timestamp::Seconds(10)); }),
            0);
  EXPECT_GT(ticks - warm, 10000);
  EXPECT_EQ(loop.pending_events(), 5u);
}

// A shard's removal pattern: mint an owner, schedule its one-shot and
// periodic tasks, run a while, cancel it and purge. Once the slab, the
// heap and the owner tables have grown, a cycle allocates nothing.
TEST(HopAlloc, OwnerChurnAllocatesNothingOnceWarm) {
  if (!alloc::tracker_active()) {
    GTEST_SKIP() << "allocation counting is disabled under sanitizers";
  }
  sim::EventLoop loop;
  int64_t runs = 0;
  loop.Every(TimeDelta::Millis(7), [&runs] {  // an unowned neighbour
    ++runs;
    return true;
  });
  auto cycle = [&] {
    uint64_t owners[3];
    for (uint64_t& owner : owners) {
      owner = loop.NewOwner();
      const sim::EventLoop::OwnerScope scope(&loop, owner);
      for (int k = 0; k < 20; ++k) {
        loop.After(TimeDelta::Millis(k * 5), [&runs] { ++runs; });
      }
      loop.Every(TimeDelta::Millis(10), [&runs] {
        ++runs;
        return true;
      });
    }
    loop.RunFor(TimeDelta::Millis(40));
    for (const uint64_t owner : owners) loop.Cancel(owner);
    loop.PurgeCancelled();
  };
  for (int round = 0; round < 3; ++round) cycle();
  for (int round = 0; round < 50; ++round) {
    EXPECT_EQ(CountAllocations(cycle), 0) << "round " << round;
  }
  EXPECT_EQ(loop.pending_events(), 1u);  // only the neighbour is left
  EXPECT_GT(runs, 0);
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

// Egress::SendRtp serializes straight into the datagram's inline bytes,
// so a stamped send plus its delivery allocates nothing once the link's
// heap and the event queue have grown. The receiver answers every round
// with transport feedback, outside the count, as a real one does: that
// keeps the send history inside its ring.
TEST(HopAlloc, EgressSendRtpAndDeliveryAllocateNothing) {
  if (!alloc::tracker_active()) {
    GTEST_SKIP() << "allocation counting is disabled under sanitizers";
  }
  sim::EventLoop loop;
  sim::Link link(&loop, sim::LinkConfig::Wifi(), Rng(5));
  transport::Egress egress(&loop, DataRate::KilobitsPerSec(300),
                           Ssrc(0x80000001u), &link);
  transport::FeedbackBuilder feedback;
  int64_t delivered = 0;
  link.SetSink([&](const sim::Packet& p) {
    const auto parsed = net::RtpPacket::Parse(p.data);
    if (parsed && parsed->transport_sequence) {
      feedback.OnPacketArrived(*parsed->transport_sequence, loop.Now());
      ++delivered;
    }
  });
  net::RtpPacket packet;
  packet.ssrc = Ssrc(7);
  packet.payload_size = 1100;
  for (int round = 0; round < 20; ++round) {
    const int64_t allocations = CountAllocations([&] {
      for (int i = 0; i < 64; ++i) {
        ++packet.sequence_number;
        egress.SendRtp(packet);
      }
      loop.RunAll();
    });
    if (round >= 5) {
      EXPECT_EQ(allocations, 0) << "round " << round;
    }
    const auto fb = feedback.Build(Ssrc(1));
    ASSERT_TRUE(fb.has_value());
    egress.bwe().OnFeedback(*fb, loop.Now());
  }
  EXPECT_EQ(delivered, 20 * 64);
}

// A full stream takes each new packet into the slot its evicted front
// frees; retransmissions overwrite in place and stragglers below the
// window are dropped without touching the heap.
TEST(HopAlloc, SteadyRtxCachePutAllocatesNothing) {
  if (!alloc::tracker_active()) {
    GTEST_SKIP() << "allocation counting is disabled under sanitizers";
  }
  media::RtxCache cache;
  net::RtpPacket packet;
  packet.ssrc = Ssrc(3);
  packet.payload_size = 1000;
  uint16_t seq = 60000;  // wraps during the run
  auto run = [&](int packets) {
    for (int i = 0; i < packets; ++i) {
      packet.sequence_number = seq++;
      cache.Put(packet);
      if (i % 10 == 0) {  // a retransmission and a straggler
        packet.sequence_number = static_cast<uint16_t>(seq - 3);
        cache.Put(packet);
        packet.sequence_number = static_cast<uint16_t>(seq - 900);
        cache.Put(packet);
      }
    }
  };
  run(2000);
  EXPECT_EQ(CountAllocations([&] { run(100000); }), 0);
  EXPECT_TRUE(cache.Get(Ssrc(3), static_cast<uint16_t>(seq - 512)));
  EXPECT_FALSE(cache.Get(Ssrc(3), static_cast<uint16_t>(seq - 513)));
}

// An RTCP compound is written into the egress's reused buffer and copied
// into the datagram at its exact size: one allocation when it is larger
// than the inline bytes (a feedback report), none when it fits (a PLI).
TEST(HopAlloc, RtcpCompoundAllocatesAtMostOnce) {
  if (!alloc::tracker_active()) {
    GTEST_SKIP() << "allocation counting is disabled under sanitizers";
  }
  sim::EventLoop loop;
  sim::Link link(&loop, sim::LinkConfig{}, Rng(6));
  transport::Egress egress(&loop, DataRate::KilobitsPerSec(300),
                           Ssrc(0x80000002u), &link);
  int64_t delivered = 0;
  link.SetSink([&](const sim::Packet& p) { delivered += net::IsRtcp(p.data); });
  net::TransportFeedback report;
  report.sender_ssrc = Ssrc(1);
  for (uint16_t i = 0; i < 100; ++i) {
    report.packets.push_back({i, i % 9 != 4, 40u * i});
  }
  const std::vector<net::RtcpMessage> feedback = {report};
  const std::vector<net::RtcpMessage> pli = {net::Pli{Ssrc(1), Ssrc(2)}};
  auto send = [&](const std::vector<net::RtcpMessage>& messages) {
    return CountAllocations([&] {
      egress.SendRtcp(messages);
      loop.RunAll();
    });
  };
  send(feedback);
  send(pli);
  for (int round = 0; round < 10; ++round) {
    EXPECT_LE(send(feedback), 1) << "round " << round;
    EXPECT_EQ(send(pli), 0) << "round " << round;
  }
  EXPECT_EQ(delivered, 22);
}

// A frame's packets, shuffled, cost the jitter buffer its frame entry and
// the decoded-frame list, however many packets the frame has: the per
// frame index set is an inline bitset.
TEST(HopAlloc, JitterBufferFrameCostsNoAllocationPerPacket) {
  if (!alloc::tracker_active()) {
    GTEST_SKIP() << "allocation counting is disabled under sanitizers";
  }
  media::JitterBuffer buffer;
  Rng rng(8);
  uint16_t seq = 65000;  // wraps during the run
  Timestamp now = Timestamp::Millis(1);
  auto frame = [&](uint32_t frame_id, uint16_t count) {
    std::vector<net::RtpPacket> packets(count);
    for (uint16_t i = 0; i < count; ++i) {
      packets[i].ssrc = Ssrc(1);
      packets[i].sequence_number = seq++;
      packets[i].frame_id = frame_id;
      packets[i].packet_index = i;
      packets[i].packets_in_frame = count;
      packets[i].is_keyframe = frame_id == 1;
      packets[i].payload_size = 1100;
    }
    for (size_t i = packets.size(); i > 1; --i) {
      std::swap(packets[i - 1], packets[static_cast<size_t>(rng.UniformInt(
                                    0, static_cast<int64_t>(i) - 1))]);
    }
    return packets;
  };
  for (uint32_t frame_id = 1; frame_id <= 20; ++frame_id) {
    const std::vector<net::RtpPacket> packets =
        frame(frame_id, frame_id % 2 == 0 ? 200 : 5);
    size_t decoded = 0;
    const int64_t allocations = CountAllocations([&] {
      for (const auto& p : packets) {
        now += TimeDelta::Micros(300);
        decoded += buffer.Insert(p, now).size();
      }
    });
    EXPECT_EQ(decoded, 1u) << "frame " << frame_id;
    EXPECT_LE(allocations, 2) << "frame " << frame_id;
  }
  EXPECT_EQ(buffer.frames_decoded(), 20);
}

// A received stream's NACK state once warm: in-order arrivals with every
// 20th sequence lost, two of three losses repaired two ticks later and the
// third never (it is retried to its budget and then leaves the window).
// Insert allocates nothing, and Collect only the vector it returns.
TEST(HopAlloc, ReceiveWindowAllocatesNothingOnceWarm) {
  if (!alloc::tracker_active()) {
    GTEST_SKIP() << "allocation counting is disabled under sanitizers";
  }
  ReceiveWindow window(/*max_attempts=*/4, /*max_batch=*/16);
  uint16_t seq = 65000;  // wraps during the run
  int losses = 0;
  struct Repair {
    uint16_t seq;
    int due_tick;
  };
  std::array<Repair, 16> repairs{};
  size_t pending = 0;
  for (int tick = 0; tick < 1200; ++tick) {
    const Timestamp now = Timestamp::Millis(10 * tick);
    const int64_t insert_allocations = CountAllocations([&] {
      for (int i = 0; i < 10; ++i, ++seq) {
        if (seq % 20 != 0) {
          window.Insert(seq);
        } else if (++losses % 3 != 0) {
          repairs[pending++] = {seq, tick + 2};
        }
      }
      for (size_t i = 0; i < pending;) {
        if (repairs[i].due_tick > tick) {
          ++i;
          continue;
        }
        window.Insert(repairs[i].seq);
        repairs[i] = repairs[--pending];
      }
    });
    std::vector<uint16_t> nacks;
    const int64_t collect_allocations = CountAllocations(
        [&] { nacks = window.Collect(now, /*floor=*/INT64_MIN); });
    const int64_t returned_allocations = CountAllocations([&] {
      std::vector<uint16_t> same;
      for (uint16_t n : nacks) same.push_back(n);
    });
    if (tick >= 200) {
      EXPECT_EQ(insert_allocations, 0) << "tick " << tick;
      EXPECT_EQ(collect_allocations, returned_allocations) << "tick " << tick;
    }
  }
  EXPECT_GT(window.retry_entries(), 0u);
}

}  // namespace
}  // namespace gso
