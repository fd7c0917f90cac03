// Tests for receiver-side transport feedback generation, including a
// differential test of the dense arrival window against a frozen copy of
// the std::map builder it replaced.
#include "transport/feedback_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.h"

namespace gso::transport {
namespace {

TEST(FeedbackBuilder, EmptyHasNothing) {
  FeedbackBuilder builder;
  EXPECT_FALSE(builder.HasData());
  EXPECT_FALSE(builder.Build(Ssrc(1)).has_value());
}

TEST(FeedbackBuilder, ReportsContiguousArrivals) {
  FeedbackBuilder builder;
  for (uint16_t i = 0; i < 5; ++i) {
    builder.OnPacketArrived(i, Timestamp::Millis(100 + i * 10));
  }
  const auto fb = builder.Build(Ssrc(9));
  ASSERT_TRUE(fb.has_value());
  EXPECT_EQ(fb->sender_ssrc, Ssrc(9));
  EXPECT_EQ(fb->base_time_ms, 100u);
  ASSERT_EQ(fb->packets.size(), 5u);
  for (uint16_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(fb->packets[i].received);
    EXPECT_EQ(fb->packets[i].delta_250us, static_cast<uint32_t>(i) * 40);
  }
}

TEST(FeedbackBuilder, GapsReportedAsLost) {
  FeedbackBuilder builder;
  builder.OnPacketArrived(10, Timestamp::Millis(100));
  builder.OnPacketArrived(13, Timestamp::Millis(130));
  const auto fb = builder.Build(Ssrc(1));
  ASSERT_TRUE(fb.has_value());
  ASSERT_EQ(fb->packets.size(), 4u);
  EXPECT_TRUE(fb->packets[0].received);
  EXPECT_FALSE(fb->packets[1].received);
  EXPECT_FALSE(fb->packets[2].received);
  EXPECT_TRUE(fb->packets[3].received);
}

TEST(FeedbackBuilder, SecondBuildCoversOnlyNewRange) {
  FeedbackBuilder builder;
  builder.OnPacketArrived(0, Timestamp::Millis(10));
  builder.OnPacketArrived(1, Timestamp::Millis(20));
  ASSERT_TRUE(builder.Build(Ssrc(1)).has_value());
  EXPECT_FALSE(builder.HasData());
  builder.OnPacketArrived(2, Timestamp::Millis(30));
  const auto fb = builder.Build(Ssrc(1));
  ASSERT_TRUE(fb.has_value());
  ASSERT_EQ(fb->packets.size(), 1u);
  EXPECT_EQ(fb->packets[0].sequence, 2);
}

TEST(FeedbackBuilder, LateGapFilledInNextReport) {
  FeedbackBuilder builder;
  builder.OnPacketArrived(0, Timestamp::Millis(10));
  builder.OnPacketArrived(2, Timestamp::Millis(30));
  auto fb = builder.Build(Ssrc(1));  // reports 1 as lost
  ASSERT_TRUE(fb.has_value());
  EXPECT_FALSE(fb->packets[1].received);
  // Packet 1 arrives late (reordered) together with 3: the next report
  // range starts after the previous, so 1 is not re-reported, but 3 is.
  builder.OnPacketArrived(1, Timestamp::Millis(35));
  builder.OnPacketArrived(3, Timestamp::Millis(40));
  fb = builder.Build(Ssrc(1));
  ASSERT_TRUE(fb.has_value());
  ASSERT_EQ(fb->packets.size(), 1u);
  EXPECT_EQ(fb->packets[0].sequence, 3);
  EXPECT_TRUE(fb->packets[0].received);
}

TEST(FeedbackBuilder, HandlesSequenceWrap) {
  FeedbackBuilder builder;
  builder.OnPacketArrived(65534, Timestamp::Millis(10));
  builder.OnPacketArrived(65535, Timestamp::Millis(20));
  builder.OnPacketArrived(0, Timestamp::Millis(30));
  builder.OnPacketArrived(1, Timestamp::Millis(40));
  const auto fb = builder.Build(Ssrc(1));
  ASSERT_TRUE(fb.has_value());
  ASSERT_EQ(fb->packets.size(), 4u);
  EXPECT_EQ(fb->packets[0].sequence, 65534);
  EXPECT_EQ(fb->packets[2].sequence, 0);
  for (const auto& p : fb->packets) EXPECT_TRUE(p.received);
}

// --- Differential test against the std::map builder ----------------------

// Frozen copy of FeedbackBuilder before the dense window: one map node per
// arrival.
class MapFeedbackReference {
 public:
  void OnPacketArrived(uint16_t transport_sequence, Timestamp arrival) {
    const int64_t seq = unwrapper_.Unwrap(transport_sequence);
    if (next_to_report_ && seq < *next_to_report_) return;
    arrivals_[seq] = arrival;
    if (!next_to_report_) next_to_report_ = seq;
    max_seen_ = std::max(max_seen_, seq);
  }

  bool HasData() const {
    return next_to_report_ && max_seen_ >= *next_to_report_;
  }

  std::optional<net::TransportFeedback> Build(Ssrc reporter_ssrc) {
    if (!HasData()) return std::nullopt;
    net::TransportFeedback fb;
    fb.sender_ssrc = reporter_ssrc;
    Timestamp base = Timestamp::PlusInfinity();
    for (int64_t s = *next_to_report_; s <= max_seen_; ++s) {
      const auto it = arrivals_.find(s);
      if (it != arrivals_.end()) base = std::min(base, it->second);
    }
    if (!base.IsFinite()) base = Timestamp::Zero();
    fb.base_time_ms = static_cast<uint32_t>(base.ms());
    for (int64_t s = *next_to_report_; s <= max_seen_; ++s) {
      net::TransportFeedback::PacketResult p;
      p.sequence = static_cast<uint16_t>(s & 0xFFFF);
      const auto it = arrivals_.find(s);
      if (it != arrivals_.end()) {
        p.received = true;
        const TimeDelta delta = it->second - Timestamp::Millis(fb.base_time_ms);
        p.delta_250us = static_cast<uint32_t>(delta.us() / 250);
        arrivals_.erase(it);
      }
      fb.packets.push_back(p);
    }
    next_to_report_ = max_seen_ + 1;
    return fb;
  }

 private:
  SequenceUnwrapper unwrapper_;
  std::map<int64_t, Timestamp> arrivals_;
  std::optional<int64_t> next_to_report_;
  int64_t max_seen_ = -1;
};

void ExpectSameFeedback(const std::optional<net::TransportFeedback>& got,
                        const std::optional<net::TransportFeedback>& expected,
                        uint64_t seed, int tick) {
  ASSERT_EQ(got.has_value(), expected.has_value())
      << "seed " << seed << " tick " << tick;
  if (!expected) return;
  ASSERT_EQ(got->sender_ssrc, expected->sender_ssrc);
  ASSERT_EQ(got->base_time_ms, expected->base_time_ms)
      << "seed " << seed << " tick " << tick;
  ASSERT_EQ(got->packets.size(), expected->packets.size())
      << "seed " << seed << " tick " << tick;
  for (size_t i = 0; i < expected->packets.size(); ++i) {
    ASSERT_EQ(got->packets[i].sequence, expected->packets[i].sequence);
    ASSERT_EQ(got->packets[i].received, expected->packets[i].received)
        << "seed " << seed << " tick " << tick << " packet " << i;
    ASSERT_EQ(got->packets[i].delta_250us, expected->packets[i].delta_250us);
  }
}

// Seeded 1 ms ticks of a receive-side stream: up to 30 % loss, duplicates
// (some arriving again later, which overwrite the first arrival), late
// arrivals up to ~300 ms behind (many after the report that listed
// them as lost), forward jumps that wrap the 16-bit counter, and reports
// built every 20-200 ms.
TEST(FeedbackBuilderDifferential, MatchesMapBuilder) {
  size_t packets_compared = 0;
  size_t lost_reported = 0;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    Rng rng(seed);
    MapFeedbackReference reference;
    FeedbackBuilder builder;
    const double loss = 0.3 * rng.NextDouble();
    uint16_t next = static_cast<uint16_t>(rng.UniformInt(0, 65535));
    std::multimap<int64_t, uint16_t> late;  // due tick -> sequence
    int64_t next_build = rng.UniformInt(20, 200);
    for (int tick = 0; tick < 6000; ++tick) {
      const Timestamp now = Timestamp::Millis(tick);
      std::vector<uint16_t> arrivals;
      for (int64_t n = rng.UniformInt(0, 4); n > 0; --n) {
        const double r = rng.NextDouble();
        if (r < 0.001) {
          next = static_cast<uint16_t>(next + rng.UniformInt(1000, 30000));
        } else if (r < 0.005) {
          next = static_cast<uint16_t>(next + rng.UniformInt(1, 300));
        }
        const uint16_t seq = next++;
        if (!rng.Bernoulli(loss)) {
          arrivals.push_back(seq);
          if (rng.Bernoulli(0.02)) {  // duplicate, now or later
            if (rng.Bernoulli(0.5)) {
              arrivals.push_back(seq);
            } else {
              late.emplace(tick + rng.UniformInt(1, 50), seq);
            }
          }
        } else if (rng.Bernoulli(0.4)) {
          late.emplace(tick + rng.UniformInt(1, 300), seq);
        }
      }
      for (auto it = late.begin(); it != late.end() && it->first <= tick;) {
        arrivals.push_back(it->second);
        it = late.erase(it);
      }
      for (uint16_t seq : arrivals) {
        reference.OnPacketArrived(seq, now);
        builder.OnPacketArrived(seq, now);
        ASSERT_EQ(builder.HasData(), reference.HasData());
      }
      if (tick == next_build) {
        next_build += rng.UniformInt(20, 200);
        const Ssrc ssrc(static_cast<uint32_t>(seed));
        const auto expected = reference.Build(ssrc);
        ExpectSameFeedback(builder.Build(ssrc), expected, seed, tick);
        ASSERT_EQ(builder.HasData(), reference.HasData());
        if (expected) {
          packets_compared += expected->packets.size();
          lost_reported += static_cast<size_t>(std::count_if(
              expected->packets.begin(), expected->packets.end(),
              [](const auto& p) { return !p.received; }));
        }
      }
    }
  }
  EXPECT_GT(packets_compared, 100000u);
  EXPECT_GT(lost_reported, 10000u);
}

}  // namespace
}  // namespace gso::transport
