// Tests for sent-packet bookkeeping, including a differential test of the
// ring-and-spill history against a frozen copy of the std::map history it
// replaced.
#include "transport/packet_history.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.h"

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

// --- Differential test against the std::map history ----------------------

// Frozen copy of PacketHistory before the ring: one map node per packet.
class MapHistoryReference {
 public:
  void OnPacketSent(uint16_t transport_sequence, Timestamp send_time,
                    DataSize size, std::optional<int> probe_cluster) {
    const int64_t seq = send_unwrapper_.Unwrap(transport_sequence);
    history_[seq] = SentPacket{send_time, size, probe_cluster};
    while (history_.size() > 10000) history_.erase(history_.begin());
    const Timestamp horizon = send_time - TimeDelta::Seconds(5);
    while (!history_.empty() &&
           history_.begin()->second.send_time < horizon) {
      history_.erase(history_.begin());
    }
  }

  std::optional<PacketResult> Lookup(uint16_t transport_sequence,
                                     bool received, Timestamp receive_time) {
    const int64_t seq = feedback_unwrapper_.Unwrap(transport_sequence);
    const auto it = history_.find(seq);
    if (it == history_.end()) return std::nullopt;
    PacketResult result;
    result.sequence = seq;
    result.send_time = it->second.send_time;
    result.size = it->second.size;
    result.received = received;
    result.receive_time = receive_time;
    result.probe_cluster = it->second.probe_cluster;
    history_.erase(it);
    return result;
  }

  size_t in_flight_count() const { return history_.size(); }

 private:
  SequenceUnwrapper send_unwrapper_;
  SequenceUnwrapper feedback_unwrapper_;
  std::map<int64_t, SentPacket> history_;
};

bool SameResult(const std::optional<PacketResult>& a,
                const std::optional<PacketResult>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return a->sequence == b->sequence && a->send_time == b->send_time &&
         a->size == b->size && a->received == b->received &&
         a->receive_time == b->receive_time &&
         a->probe_cluster == b->probe_cluster;
}

// Seeded sender and feedback stream. Sequences are mostly consecutive,
// with duplicates, backward steps and rare forward jumps that wrap the
// 16-bit counter; time advances 0-3 ms a packet, with rare stalls past the
// 5 s age-out. Each round's feedback joins the round's packets, sometimes
// reordered or mixed with never-sent sequences; some rounds lose their
// feedback, and a later round may still answer those stragglers from the
// spill. One round per seed sends 11 000 packets with no feedback at all,
// so the 10 000-entry cap evicts.
TEST(PacketHistoryDifferential, MatchesMapHistory) {
  size_t hits = 0;
  size_t straggler_hits = 0;
  size_t max_in_flight = 0;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    Rng rng(seed);
    MapHistoryReference reference;
    PacketHistory history;
    uint16_t next = static_cast<uint16_t>(rng.UniformInt(0, 65535));
    Timestamp now = Timestamp::Seconds(1);
    std::vector<uint16_t> stragglers;
    const int blackout_round = static_cast<int>(rng.UniformInt(0, 39));
    for (int round = 0; round < 40; ++round) {
      std::vector<uint16_t> sent;
      const int64_t count =
          round == blackout_round ? 11000 : rng.UniformInt(1, 300);
      for (int64_t i = 0; i < count; ++i) {
        const double r = rng.NextDouble();
        uint16_t seq;
        if (r < 0.01 && !sent.empty()) {
          seq = sent.back();  // duplicate
        } else if (r < 0.02) {
          seq = static_cast<uint16_t>(next - rng.UniformInt(1, 200));
        } else {
          if (r < 0.022) {
            next = static_cast<uint16_t>(next + rng.UniformInt(1000, 30000));
          }
          seq = next++;
        }
        if (round == blackout_round) {
          now += TimeDelta::Micros(100);
        } else if (rng.Bernoulli(0.002)) {
          now += TimeDelta::Seconds(6);
        } else {
          now += TimeDelta::Micros(rng.UniformInt(0, 3000));
        }
        const DataSize size = DataSize::Bytes(rng.UniformInt(40, 1400));
        const std::optional<int> cluster =
            rng.Bernoulli(0.1) ? std::optional<int>(static_cast<int>(
                                     rng.UniformInt(1, 9)))
                               : std::nullopt;
        reference.OnPacketSent(seq, now, size, cluster);
        history.OnPacketSent(seq, now, size, cluster);
        ASSERT_EQ(history.in_flight_count(), reference.in_flight_count())
            << "seed " << seed << " round " << round;
        max_in_flight = std::max(max_in_flight, history.in_flight_count());
        sent.push_back(seq);
      }
      if (round == blackout_round || rng.Bernoulli(0.15)) {
        // Feedback lost: these become stragglers.
        stragglers.insert(stragglers.end(), sent.begin(), sent.end());
        continue;
      }
      std::vector<uint16_t> feedback = sent;
      if (rng.Bernoulli(0.3)) {
        for (size_t i = feedback.size(); i > 1; --i) {
          std::swap(feedback[i - 1],
                    feedback[static_cast<size_t>(rng.UniformInt(
                        0, static_cast<int64_t>(i) - 1))]);
        }
      }
      if (rng.Bernoulli(0.3)) {
        feedback.push_back(static_cast<uint16_t>(next + 50));  // never sent
      }
      // A late report for an earlier lost batch, joined from the spill.
      const bool late = !stragglers.empty() && rng.Bernoulli(0.3);
      const size_t late_count =
          late ? static_cast<size_t>(rng.UniformInt(
                     1, std::min<int64_t>(200, static_cast<int64_t>(
                                                   stragglers.size()))))
               : 0;
      const std::vector<uint16_t> late_seqs(stragglers.end() - late_count,
                                            stragglers.end());
      stragglers.resize(stragglers.size() - late_count);
      for (const bool is_late : {true, false}) {
        for (uint16_t seq : is_late ? late_seqs : feedback) {
          const bool received = rng.Bernoulli(0.9);
          const Timestamp at = now + TimeDelta::Millis(40);
          const auto expected = reference.Lookup(seq, received, at);
          const auto got = history.Lookup(seq, received, at);
          ASSERT_TRUE(SameResult(got, expected))
              << "seed " << seed << " round " << round << " seq " << seq;
          ASSERT_EQ(history.in_flight_count(), reference.in_flight_count());
          hits += expected.has_value();
          straggler_hits += is_late && expected.has_value();
        }
      }
    }
  }
  EXPECT_GT(hits, 50000u);
  EXPECT_GT(straggler_hits, 500u);  // the spill really answers late reports
  EXPECT_EQ(max_in_flight, 10000u);  // the cap really engages
}

}  // namespace
}  // namespace gso::transport
