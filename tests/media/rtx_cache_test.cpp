// Tests for the retransmission cache, including a differential test of
// the sorted-ring cache against a frozen copy of the std::map cache it
// replaced.
#include "media/rtx_cache.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <unordered_map>

#include "common/rng.h"

namespace gso::media {
namespace {

net::RtpPacket MakePacket(Ssrc ssrc, uint16_t seq) {
  net::RtpPacket p;
  p.ssrc = ssrc;
  p.sequence_number = seq;
  p.payload_size = 100;
  return p;
}

TEST(RtxCache, StoresAndRetrieves) {
  RtxCache cache;
  cache.Put(MakePacket(Ssrc(1), 42));
  const auto hit = cache.Get(Ssrc(1), 42);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->sequence_number, 42);
}

TEST(RtxCache, MissOnUnknownSsrcOrSeq) {
  RtxCache cache;
  cache.Put(MakePacket(Ssrc(1), 42));
  EXPECT_FALSE(cache.Get(Ssrc(2), 42).has_value());
  EXPECT_FALSE(cache.Get(Ssrc(1), 43).has_value());
}

TEST(RtxCache, EvictsOldestWhenFull) {
  RtxCache cache(/*max_packets_per_stream=*/4);
  for (uint16_t i = 0; i < 8; ++i) cache.Put(MakePacket(Ssrc(1), i));
  EXPECT_FALSE(cache.Get(Ssrc(1), 0).has_value());
  EXPECT_FALSE(cache.Get(Ssrc(1), 3).has_value());
  EXPECT_TRUE(cache.Get(Ssrc(1), 4).has_value());
  EXPECT_TRUE(cache.Get(Ssrc(1), 7).has_value());
}

TEST(RtxCache, StreamsAreIndependent) {
  RtxCache cache(/*max_packets_per_stream=*/2);
  cache.Put(MakePacket(Ssrc(1), 1));
  cache.Put(MakePacket(Ssrc(2), 1));
  cache.Put(MakePacket(Ssrc(2), 2));
  cache.Put(MakePacket(Ssrc(2), 3));
  EXPECT_TRUE(cache.Get(Ssrc(1), 1).has_value());  // not evicted by Ssrc 2
  EXPECT_FALSE(cache.Get(Ssrc(2), 1).has_value());
}

TEST(RtxCache, WrapDoesNotEvictNewestPackets) {
  // Regression: with raw uint16_t map keys, the post-wrap sequences (0,
  // 1, ...) sorted *before* the pre-wrap ones (65534, 65535), so eviction
  // of "the oldest" silently threw away the packets a NACK was about to
  // request. Sequences must be ordered by their unwrapped position.
  RtxCache cache(/*max_packets_per_stream=*/4);
  for (uint16_t seq : {65533, 65534, 65535, 0, 1, 2}) {
    cache.Put(MakePacket(Ssrc(1), seq));
  }
  // The four newest (65535, 0, 1, 2) must survive; the two oldest are out.
  EXPECT_FALSE(cache.Get(Ssrc(1), 65533).has_value());
  EXPECT_FALSE(cache.Get(Ssrc(1), 65534).has_value());
  EXPECT_TRUE(cache.Get(Ssrc(1), 65535).has_value());
  EXPECT_TRUE(cache.Get(Ssrc(1), 0).has_value());
  EXPECT_TRUE(cache.Get(Ssrc(1), 1).has_value());
  EXPECT_TRUE(cache.Get(Ssrc(1), 2).has_value());
}

TEST(RtxCache, GetAcrossWrapBoundary) {
  RtxCache cache;
  for (uint16_t seq : {65535, 0, 1}) cache.Put(MakePacket(Ssrc(1), seq));
  // A NACK for the pre-wrap sequence still resolves after the wrap.
  ASSERT_TRUE(cache.Get(Ssrc(1), 65535).has_value());
  EXPECT_EQ(cache.Get(Ssrc(1), 65535)->sequence_number, 65535);
  EXPECT_FALSE(cache.Get(Ssrc(1), 2).has_value());
}

TEST(RtxCache, DropForgetsStream) {
  RtxCache cache;
  cache.Put(MakePacket(Ssrc(1), 1));
  cache.Put(MakePacket(Ssrc(2), 1));
  cache.Drop(Ssrc(1));
  EXPECT_FALSE(cache.Get(Ssrc(1), 1).has_value());
  EXPECT_TRUE(cache.Get(Ssrc(2), 1).has_value());
}

TEST(RtxCache, OverwriteSameSequenceKeepsLatest) {
  RtxCache cache;
  auto p = MakePacket(Ssrc(1), 9);
  p.payload_size = 111;
  cache.Put(p);
  p.payload_size = 222;
  cache.Put(p);
  EXPECT_EQ(cache.Get(Ssrc(1), 9)->payload_size, 222u);
}

// --- Differential test against the std::map cache ------------------------

// Frozen copy of RtxCache before the ring: one map node per cached packet,
// bounded by erasing begin(). Counts which map paths the stream exercised.
class MapRtxCacheReference {
 public:
  explicit MapRtxCacheReference(size_t max_packets_per_stream)
      : max_per_stream_(max_packets_per_stream) {}

  void Put(const net::RtpPacket& packet) {
    auto& stream = streams_[packet.ssrc];
    const int64_t seq = stream.unwrapper.Unwrap(packet.sequence_number);
    const bool full = stream.packets.size() >= max_per_stream_;
    if (stream.packets.count(seq)) {
      ++overwrites;
    } else if (full && !stream.packets.empty() &&
               seq < stream.packets.begin()->first) {
      ++below_full;
    } else if (!stream.packets.empty() &&
               seq < stream.packets.rbegin()->first) {
      ++reordered;
    }
    stream.packets[seq] = packet;
    while (stream.packets.size() > max_per_stream_) {
      stream.packets.erase(stream.packets.begin());
      ++evictions;
    }
  }

  std::optional<net::RtpPacket> Get(Ssrc ssrc, uint16_t sequence) const {
    const auto s = streams_.find(ssrc);
    if (s == streams_.end()) return std::nullopt;
    const auto last = s->second.unwrapper.last();
    if (!last) return std::nullopt;
    const int64_t seq =
        *last + static_cast<int16_t>(
                    sequence - static_cast<uint16_t>(*last & 0xFFFF));
    const auto p = s->second.packets.find(seq);
    if (p == s->second.packets.end()) return std::nullopt;
    return p->second;
  }

  void Drop(Ssrc ssrc) { streams_.erase(ssrc); }
  void Clear() { streams_.clear(); }

  int64_t overwrites = 0;
  int64_t below_full = 0;
  int64_t reordered = 0;
  int64_t evictions = 0;

 private:
  struct Stream {
    SequenceUnwrapper unwrapper;
    std::map<int64_t, net::RtpPacket> packets;
  };

  size_t max_per_stream_;
  std::unordered_map<Ssrc, Stream> streams_;
};

bool SamePacket(const std::optional<net::RtpPacket>& a,
                const std::optional<net::RtpPacket>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return a->ssrc == b->ssrc && a->sequence_number == b->sequence_number &&
         a->payload_size == b->payload_size && a->frame_id == b->frame_id &&
         a->marker == b->marker && a->timestamp == b->timestamp;
}

// Seeded Put/Get/Drop/Clear streams on two SSRCs, starting just below the
// 16-bit wrap. Puts are mostly the next sequence, with retransmissions of
// recent ones (an equal key must overwrite), reordered stragglers up to
// 600 back (below every kept key once a stream is full), forward gaps
// wider than the 512-entry bound, and rare Drop/Clear. Every put carries
// a fresh payload_size tag, so a kept-first duplicate shows. Odd seeds use
// a 5-entry bound so the full-stream paths run constantly.
TEST(RtxCacheDifferential, MatchesMapCache) {
  int64_t overwrites = 0;
  int64_t below_full = 0;
  int64_t reordered = 0;
  int64_t evictions = 0;
  int64_t wrapped_gets = 0;
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    Rng rng(seed);
    const size_t max = seed % 2 == 1 ? 5 : 512;
    MapRtxCacheReference reference(max);
    RtxCache cache(max);
    const Ssrc ssrcs[2] = {Ssrc(11), Ssrc(22)};
    uint16_t next[2];
    for (auto& n : next) {
      n = static_cast<uint16_t>(65535 - rng.UniformInt(0, 1500));
    }
    uint32_t tag = 0;
    auto same = [&](Ssrc ssrc, uint16_t seq) {
      return SamePacket(cache.Get(ssrc, seq), reference.Get(ssrc, seq));
    };
    for (int op = 0; op < 12000; ++op) {
      const int which = static_cast<int>(rng.UniformInt(0, 1));
      const Ssrc ssrc = ssrcs[which];
      uint16_t& n = next[which];
      const double r = rng.NextDouble();
      if (r < 0.985) {
        uint16_t seq;
        if (r < 0.70) {
          seq = n++;
        } else if (r < 0.80) {
          seq = static_cast<uint16_t>(n - rng.UniformInt(1, 4));
        } else if (r < 0.95) {
          seq = static_cast<uint16_t>(n - rng.UniformInt(1, 600));
        } else {
          n = static_cast<uint16_t>(n + rng.UniformInt(513, 4000));
          seq = n++;
        }
        net::RtpPacket packet;
        packet.ssrc = ssrc;
        packet.sequence_number = seq;
        packet.payload_size = ++tag;
        packet.frame_id = static_cast<uint32_t>(op);
        reference.Put(packet);
        cache.Put(packet);
        ASSERT_TRUE(same(ssrc, seq))
            << "seed " << seed << " op " << op << " put " << seq;
      } else if (r < 0.99) {
        reference.Drop(ssrc);
        cache.Drop(ssrc);
      } else if (r < 0.991) {
        reference.Clear();
        cache.Clear();
      }
      // A random probe each op; a sweep of the whole window now and then.
      const uint16_t probe = static_cast<uint16_t>(n - rng.UniformInt(0, 700));
      ASSERT_TRUE(same(ssrc, probe))
          << "seed " << seed << " op " << op << " get " << probe;
      if (op % 101 == 0) {
        for (int back = -3; back < 1100; ++back) {
          const uint16_t seq = static_cast<uint16_t>(n - back);
          ASSERT_TRUE(same(ssrc, seq))
              << "seed " << seed << " op " << op << " sweep " << seq;
          wrapped_gets += seq > n;
        }
      }
    }
    overwrites += reference.overwrites;
    below_full += reference.below_full;
    reordered += reference.reordered;
    evictions += reference.evictions;
  }
  // Every path of the bounded map really ran.
  EXPECT_GT(overwrites, 10000);
  EXPECT_GT(below_full, 10000);
  EXPECT_GT(reordered, 10000);
  EXPECT_GT(evictions, 100000);
  EXPECT_GT(wrapped_gets, 1000);  // Gets whose window spans the wrap
}

}  // namespace
}  // namespace gso::media
