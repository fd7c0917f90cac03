// Tests for sent-packet bookkeeping.
#include "transport/packet_history.h"

#include <gtest/gtest.h>

namespace gso::transport {
namespace {

TEST(PacketHistory, LookupJoinsSendAndReceive) {
  PacketHistory history;
  history.OnPacketSent(5, Timestamp::Millis(100), DataSize::Bytes(1200));
  const auto result =
      history.Lookup(5, /*received=*/true, Timestamp::Millis(140));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->send_time, Timestamp::Millis(100));
  EXPECT_EQ(result->receive_time, Timestamp::Millis(140));
  EXPECT_EQ(result->size, DataSize::Bytes(1200));
  EXPECT_TRUE(result->received);
}

TEST(PacketHistory, LookupConsumesEntry) {
  PacketHistory history;
  history.OnPacketSent(5, Timestamp::Millis(100), DataSize::Bytes(100));
  EXPECT_TRUE(history.Lookup(5, true, Timestamp::Millis(120)).has_value());
  EXPECT_FALSE(history.Lookup(5, true, Timestamp::Millis(130)).has_value());
}

TEST(PacketHistory, UnknownSequenceReturnsNothing) {
  PacketHistory history;
  EXPECT_FALSE(history.Lookup(1, true, Timestamp::Millis(10)).has_value());
}

TEST(PacketHistory, LostPacketsCarryNoReceiveValidity) {
  PacketHistory history;
  history.OnPacketSent(7, Timestamp::Millis(100), DataSize::Bytes(100));
  const auto result = history.Lookup(7, /*received=*/false, Timestamp::Zero());
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->received);
}

TEST(PacketHistory, SurvivesSequenceWrap) {
  PacketHistory history;
  history.OnPacketSent(65535, Timestamp::Millis(1), DataSize::Bytes(10));
  history.OnPacketSent(0, Timestamp::Millis(2), DataSize::Bytes(20),
                       /*probe_cluster=*/7);
  const auto a = history.Lookup(65535, true, Timestamp::Millis(30));
  const auto b = history.Lookup(0, true, Timestamp::Millis(31));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_LT(a->sequence, b->sequence);
  // The probe-cluster id rides through the wrap with its packet.
  EXPECT_FALSE(a->probe_cluster.has_value());
  EXPECT_EQ(b->probe_cluster, 7);
}

TEST(PacketHistory, BoundsMemory) {
  PacketHistory history;
  for (int i = 0; i < 30000; ++i) {
    history.OnPacketSent(static_cast<uint16_t>(i & 0xFFFF),
                         Timestamp::Millis(i), DataSize::Bytes(100));
  }
  EXPECT_LE(history.in_flight_count(), 10000u);
}

}  // namespace
}  // namespace gso::transport
