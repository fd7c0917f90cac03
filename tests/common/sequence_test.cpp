// Tests for wrapping sequence-number arithmetic and the NACK receive
// window, including differential tests of ReceiveWindow against frozen
// copies of the set/map NACK trackers and the tagged ring it replaced.
#include "common/sequence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"

namespace gso {
namespace {

TEST(SequenceUnwrapper, MonotoneSequence) {
  SequenceUnwrapper u;
  EXPECT_EQ(u.Unwrap(10), 10);
  EXPECT_EQ(u.Unwrap(11), 11);
  EXPECT_EQ(u.Unwrap(1000), 1000);
}

TEST(SequenceUnwrapper, ForwardWrap) {
  SequenceUnwrapper u;
  EXPECT_EQ(u.Unwrap(65534), 65534);
  EXPECT_EQ(u.Unwrap(65535), 65535);
  EXPECT_EQ(u.Unwrap(0), 65536);
  EXPECT_EQ(u.Unwrap(3), 65539);
}

TEST(SequenceUnwrapper, BackwardStepsWithinHalfRange) {
  SequenceUnwrapper u;
  EXPECT_EQ(u.Unwrap(100), 100);
  EXPECT_EQ(u.Unwrap(95), 95);  // reordering maps below, not wraps
  EXPECT_EQ(u.Unwrap(100), 100);
}

TEST(SequenceUnwrapper, ReorderAroundWrapPoint) {
  SequenceUnwrapper u;
  EXPECT_EQ(u.Unwrap(65535), 65535);
  EXPECT_EQ(u.Unwrap(1), 65537);
  EXPECT_EQ(u.Unwrap(0), 65536);  // late packet lands in between
}

TEST(SequenceUnwrapper, MultipleWraps) {
  SequenceUnwrapper u;
  int64_t expected = 0;
  u.Unwrap(0);
  for (int i = 0; i < 5 * 65536; i += 16384) {
    expected = i;
    EXPECT_EQ(u.Unwrap(static_cast<uint16_t>(i & 0xFFFF)), expected);
  }
}

TEST(SequenceUnwrapper, LastTracksState) {
  SequenceUnwrapper u;
  EXPECT_FALSE(u.last().has_value());
  u.Unwrap(7);
  ASSERT_TRUE(u.last().has_value());
  EXPECT_EQ(*u.last(), 7);
}

TEST(ReceiveWindow, NacksGapsAcrossWrapInOrder) {
  ReceiveWindow window(6, 64);
  for (uint16_t seq : {65533, 65535, 2}) window.Insert(seq);
  EXPECT_EQ(window.Collect(Timestamp::Millis(10), INT64_MIN),
            (std::vector<uint16_t>{65534, 0, 1}));
  EXPECT_EQ(window.highest(), 65538);
}

TEST(ReceiveWindow, RetriesEveryIntervalUpToBudget) {
  ReceiveWindow window(4, 16);
  window.Insert(10);
  window.Insert(12);
  std::vector<int64_t> sent_at_ms;
  for (int64_t ms = 0; ms <= 500; ms += 10) {
    if (!window.Collect(Timestamp::Millis(ms), INT64_MIN).empty()) {
      sent_at_ms.push_back(ms);
    }
  }
  EXPECT_EQ(sent_at_ms, (std::vector<int64_t>{0, 50, 100, 150}));
  EXPECT_EQ(window.retry_entries(), 1u);
  window.Insert(11);  // the repair arrives
  EXPECT_EQ(window.retry_entries(), 0u);
}

TEST(ReceiveWindow, FloorBatchCapAndWindowEdge) {
  ReceiveWindow window(6, 4);
  window.Insert(0);
  window.Insert(400);
  // Only the newest kNackWindow sequences below the highest are repaired,
  // four per call.
  EXPECT_EQ(window.Collect(Timestamp::Zero(), INT64_MIN),
            (std::vector<uint16_t>{250, 251, 252, 253}));
  EXPECT_EQ(window.Collect(Timestamp::Zero(), 396),
            (std::vector<uint16_t>{396, 397, 398, 399}));
  EXPECT_EQ(window.retry_entries(), 8u);
  window.ClearRetries();
  EXPECT_EQ(window.retry_entries(), 0u);
  EXPECT_EQ(window.Collect(Timestamp::Zero(), 398),
            (std::vector<uint16_t>{398, 399}));
}

// A forward jump of exactly the map's width re-enters every position, so
// bits left by the sequences 256 below must not read as received.
TEST(ReceiveWindow, JumpOfExactly256ForgetsEveryReceivedBit) {
  ReceiveWindow window(6, 64);
  for (uint16_t seq = 0; seq < 200; ++seq) window.Insert(seq);
  window.Insert(455);
  std::vector<uint16_t> expected(64);
  for (int i = 0; i < 64; ++i) expected[i] = static_cast<uint16_t>(305 + i);
  EXPECT_EQ(window.Collect(Timestamp::Zero(), INT64_MIN), expected);
  window.Insert(711);  // 256 more, with the retries all below the window
  EXPECT_EQ(window.retry_entries(), 0u);
}

TEST(ReceiveWindow, FootprintIsAtMost128Bytes) {
  EXPECT_LE(sizeof(ReceiveWindow), 128u);
}

// --- Differential test against the set/map trackers ----------------------
//
// Frozen copies of the NACK logic the jitter buffer and the SFU's uplink
// bookkeeping used before ReceiveWindow. Each keeps the newest 2000
// received sequences in a set and per-sequence retry state in a map.

// Jitter buffer: floor from the decode frontier, retry state trimmed at
// collection and dropped on give-up, 6 attempts, 64 per collection.
class JitterBufferNackReference {
 public:
  void Insert(uint16_t sequence_number) {
    const int64_t seq = unwrapper_.Unwrap(sequence_number);
    received_seqs_.insert(seq);
    nack_state_.erase(seq);
    highest_seq_ = std::max(highest_seq_, seq);
    while (received_seqs_.size() > 2000) {
      received_seqs_.erase(received_seqs_.begin());
    }
  }
  void RaiseFloor(int64_t floor) { nack_floor_ = std::max(nack_floor_, floor); }
  void GiveUp() {
    nack_floor_ = highest_seq_;
    nack_state_.clear();
  }
  int64_t nack_floor() const { return nack_floor_; }

  std::vector<uint16_t> CollectNacks(Timestamp now) {
    std::vector<uint16_t> nacks;
    if (highest_seq_ < 0 || received_seqs_.empty()) return nacks;
    const int64_t floor_seq = std::max(
        {*received_seqs_.begin(), nack_floor_ + 1, highest_seq_ - 150});
    nack_state_.erase(nack_state_.begin(),
                      nack_state_.lower_bound(floor_seq));
    for (int64_t s = floor_seq; s < highest_seq_; ++s) {
      if (received_seqs_.count(s)) continue;
      auto& state = nack_state_[s];
      if (state.attempts >= 6) continue;
      if (state.attempts > 0 &&
          now - state.last_sent < TimeDelta::Millis(50)) {
        continue;
      }
      state.attempts++;
      state.last_sent = now;
      nacks.push_back(static_cast<uint16_t>(s & 0xFFFF));
      if (nacks.size() >= 64) break;
    }
    return nacks;
  }

 private:
  struct NackState {
    Timestamp last_sent = Timestamp::Zero();
    int attempts = 0;
  };
  SequenceUnwrapper unwrapper_;
  std::set<int64_t> received_seqs_;
  std::map<int64_t, NackState> nack_state_;
  int64_t highest_seq_ = -1;
  int64_t nack_floor_ = -1;
};

// SFU uplink: retry state trimmed below the window on every insert,
// 4 attempts, 16 per tick.
class SfuNackReference {
 public:
  void Insert(uint16_t sequence_number) {
    const int64_t seq = unwrapper_.Unwrap(sequence_number);
    received_.insert(seq);
    nack_state_.erase(seq);
    highest_ = std::max(highest_, seq);
    while (received_.size() > 2000) received_.erase(received_.begin());
    nack_state_.erase(nack_state_.begin(),
                      nack_state_.lower_bound(highest_ - 150));
  }
  size_t nack_entries() const { return nack_state_.size(); }

  std::vector<uint16_t> Collect(Timestamp now) {
    std::vector<uint16_t> nacks;
    if (highest_ < 0 || received_.empty()) return nacks;
    const int64_t floor_seq = *received_.begin();
    for (int64_t s = std::max(floor_seq, highest_ - 150);
         s < highest_ && nacks.size() < 16; ++s) {
      if (received_.count(s)) continue;
      auto& [last_sent, attempts] = nack_state_[s];
      if (attempts >= 4) continue;
      if (attempts > 0 && now - last_sent < TimeDelta::Millis(50)) continue;
      ++attempts;
      last_sent = now;
      nacks.push_back(static_cast<uint16_t>(s & 0xFFFF));
    }
    return nacks;
  }

 private:
  SequenceUnwrapper unwrapper_;
  std::set<int64_t> received_;
  int64_t highest_ = -1;
  std::map<int64_t, std::pair<Timestamp, int>> nack_state_;
};

// One 10 ms tick of a seeded receive-side stream.
struct Tick {
  Timestamp now;
  std::vector<uint16_t> arrivals;  // in arrival order
  bool give_up = false;            // the decoder abandons its gaps
  bool raise_floor = false;        // the decode frontier advances
  int64_t floor_lag = 0;           // ... to this far below the highest
};

// Up to 40 % loss, 400-sequence burst gaps, late arrivals up to ~1 s
// behind (many older than the 256-slot ring), rare forward jumps that wrap
// the 16-bit counter several times per stream, and duplicates.
class LossyStream {
 public:
  explicit LossyStream(uint64_t seed)
      : rng_(seed),
        loss_(0.4 * rng_.NextDouble()),
        next_(static_cast<uint16_t>(rng_.UniformInt(0, 65535))) {}

  Tick Next() {
    Tick tick;
    ++tick_;
    tick.now = Timestamp::Millis(10 * tick_);
    const int64_t sent = rng_.UniformInt(0, 8);
    for (int64_t i = 0; i < sent; ++i) {
      const double r = rng_.NextDouble();
      if (r < 0.002) {
        next_ = static_cast<uint16_t>(next_ + rng_.UniformInt(1000, 30000));
      } else if (r < 0.01) {
        next_ = static_cast<uint16_t>(next_ + rng_.UniformInt(1, 400));
      }
      const uint16_t seq = next_++;
      if (!rng_.Bernoulli(loss_)) {
        tick.arrivals.push_back(seq);
        if (rng_.Bernoulli(0.01)) tick.arrivals.push_back(seq);
      } else if (rng_.Bernoulli(0.3)) {
        late_.emplace(tick_ + rng_.UniformInt(1, 100), seq);
      }
    }
    for (auto it = late_.begin(); it != late_.end() && it->first <= tick_;) {
      tick.arrivals.push_back(it->second);
      it = late_.erase(it);
    }
    tick.give_up = rng_.Bernoulli(0.005);
    tick.raise_floor = rng_.Bernoulli(0.05);
    tick.floor_lag = rng_.UniformInt(0, 300);
    return tick;
  }

 private:
  Rng rng_;
  double loss_;
  uint16_t next_;
  int64_t tick_ = 0;
  std::multimap<int64_t, uint16_t> late_;  // due tick -> sequence
};

constexpr int kSeeds = 64;
constexpr int kTicksPerSeed = 2000;

TEST(ReceiveWindowDifferential, MatchesJitterBufferSetMapLogic) {
  size_t nacks_compared = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    LossyStream stream(seed);
    JitterBufferNackReference reference;
    ReceiveWindow window(6, 64);
    int64_t nack_floor = -1;
    for (int t = 0; t < kTicksPerSeed; ++t) {
      const Tick tick = stream.Next();
      for (uint16_t seq : tick.arrivals) {
        reference.Insert(seq);
        window.Insert(seq);
      }
      if (tick.raise_floor) {
        nack_floor = std::max(nack_floor, window.highest() - tick.floor_lag);
        reference.RaiseFloor(nack_floor);
      }
      if (tick.give_up) {
        reference.GiveUp();
        nack_floor = window.highest();
        window.ClearRetries();
      }
      ASSERT_EQ(nack_floor, reference.nack_floor());
      const auto expected = reference.CollectNacks(tick.now);
      ASSERT_EQ(window.Collect(tick.now, nack_floor + 1), expected)
          << "seed " << seed << " tick " << t;
      nacks_compared += expected.size();
    }
  }
  EXPECT_GT(nacks_compared, 100000u);  // the streams really are lossy
}

TEST(ReceiveWindowDifferential, MatchesSfuSetMapLogicAndEntryCount) {
  size_t nacks_compared = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    LossyStream stream(seed);
    SfuNackReference reference;
    ReceiveWindow window(4, 16);
    for (int t = 0; t < kTicksPerSeed; ++t) {
      const Tick tick = stream.Next();
      for (uint16_t seq : tick.arrivals) {
        reference.Insert(seq);
        window.Insert(seq);
        ASSERT_EQ(window.retry_entries(), reference.nack_entries())
            << "seed " << seed << " tick " << t;
      }
      const auto expected = reference.Collect(tick.now);
      ASSERT_EQ(window.Collect(tick.now, INT64_MIN), expected)
          << "seed " << seed << " tick " << t;
      ASSERT_EQ(window.retry_entries(), reference.nack_entries())
          << "seed " << seed << " tick " << t;
      nacks_compared += expected.size();
    }
  }
  EXPECT_GT(nacks_compared, 50000u);
}

// --- Differential test against the tagged ring ----------------------------
//
// Frozen copy of ReceiveWindow as it was before its state went into bits: a
// 256-slot ring of 32-byte entries, each tagged with the unwrapped sequence
// its received flag and its retry state describe.
class TaggedRingWindow {
 public:
  static constexpr int64_t kNackWindow = 150;
  static constexpr TimeDelta kRetryInterval = TimeDelta::Millis(50);

  TaggedRingWindow(int max_attempts, size_t max_batch)
      : max_attempts_(max_attempts), max_batch_(max_batch) {}

  int64_t Insert(uint16_t sequence_number) {
    const int64_t seq = unwrapper_.Unwrap(sequence_number);
    lowest_ = std::min(lowest_, seq);
    highest_ = std::max(highest_, seq);
    Entry& entry = At(seq);
    if (seq > highest_ - kSlots) entry.received = seq;
    if (entry.nacked == seq) entry.nacked = kEmpty;
    return seq;
  }

  std::vector<uint16_t> Collect(Timestamp now, int64_t floor) {
    std::vector<uint16_t> nacks;
    for (int64_t s = std::max({lowest_, floor, highest_ - kNackWindow});
         s < highest_ && nacks.size() < max_batch_; ++s) {
      Entry& entry = At(s);
      if (entry.received == s) continue;
      if (entry.nacked == s && (entry.attempts >= max_attempts_ ||
                                now - entry.last_sent < kRetryInterval)) {
        continue;
      }
      entry.attempts = entry.nacked == s ? entry.attempts + 1 : 1;
      entry.nacked = s;
      entry.last_sent = now;
      nacks.push_back(static_cast<uint16_t>(s & 0xFFFF));
    }
    return nacks;
  }

  void ClearRetries() { for (Entry& e : ring_) e.nacked = kEmpty; }

  size_t retry_entries() const {
    return std::count_if(ring_.begin(), ring_.end(), [&](const Entry& e) {
      return e.nacked >= highest_ - kNackWindow && e.nacked < highest_;
    });
  }

  int64_t highest() const { return highest_; }

 private:
  static constexpr int64_t kSlots = 256;
  static constexpr int64_t kEmpty = INT64_MIN;
  struct Entry {
    int64_t received = kEmpty;
    int64_t nacked = kEmpty;
    Timestamp last_sent;
    int attempts = 0;
  };
  Entry& At(int64_t s) { return ring_[static_cast<size_t>(s & (kSlots - 1))]; }

  SequenceUnwrapper unwrapper_;
  std::array<Entry, kSlots> ring_;
  int64_t highest_ = -1;
  int64_t lowest_ = INT64_MAX;
  int max_attempts_;
  size_t max_batch_;
};

// What a seeded ring script exercised, summed over its seeds.
struct RingScriptCoverage {
  size_t nacks = 0;
  size_t capped_collects = 0;  // returned exactly max_batch sequences
  size_t jumps_of_256 = 0;
  size_t jumps_past_half_range = 0;  // unwrap as a step backwards
};

// Drives both windows with one seeded script and compares every Collect,
// and highest() and retry_entries() after every operation. Steps: in-order
// arrivals with random loss, loss bursts longer than a batch, late arrivals
// (many below the window), duplicates, forward jumps of 1-255, exactly 256,
// 257-32767 and 32768-65535 sequences, retries cleared, and a floor that
// stays at INT64_MIN or rises as the jitter buffer's does. The clock moves
// by 0, 1, 10, 49, 50 or 51 ms per Collect, so retries land on both sides
// of the interval's edge.
void RunRingScript(uint64_t seed, int max_attempts, size_t max_batch,
                   RingScriptCoverage* coverage) {
  Rng rng(seed);
  TaggedRingWindow ring(max_attempts, max_batch);
  ReceiveWindow window(max_attempts, max_batch);
  const bool rising_floor = seed % 2 == 0;
  const double loss = 0.3 * rng.NextDouble();
  uint16_t next = seed % 3 == 0
                      ? static_cast<uint16_t>(rng.UniformInt(65300, 65535))
                      : static_cast<uint16_t>(rng.UniformInt(0, 65535));
  std::vector<uint16_t> missing;  // lost, may still arrive late
  std::vector<uint16_t> recent;   // received, may arrive again
  int64_t now_ms = 0;
  int64_t floor = INT64_MIN;

  auto insert = [&](uint16_t seq) {
    ASSERT_EQ(window.Insert(seq), ring.Insert(seq));
    recent.push_back(seq);
    if (recent.size() > 32) recent.erase(recent.begin());
  };
  auto lose = [&](uint16_t seq) {
    missing.push_back(seq);
    if (missing.size() > 512) missing.erase(missing.begin());
  };
  for (int step = 0; step < 4000; ++step) {
    const double r = rng.NextDouble();
    if (r < 0.45) {
      const uint16_t seq = next++;
      if (rng.Bernoulli(loss)) {
        lose(seq);
      } else {
        insert(seq);
      }
    } else if (r < 0.53) {
      if (!missing.empty()) {
        const size_t i = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(missing.size()) - 1));
        insert(missing[i]);
        missing.erase(missing.begin() + static_cast<ptrdiff_t>(i));
      }
    } else if (r < 0.57) {
      if (!recent.empty()) {
        insert(recent[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(recent.size()) - 1))]);
      }
    } else if (r < 0.60) {
      const double k = rng.NextDouble();
      int64_t jump;
      if (k < 0.4) {
        jump = rng.UniformInt(1, 255);
      } else if (k < 0.55) {
        jump = 256;
        ++coverage->jumps_of_256;
      } else if (k < 0.8) {
        jump = rng.UniformInt(257, 32767);
      } else {
        jump = rng.UniformInt(32768, 65535);
        ++coverage->jumps_past_half_range;
      }
      next = static_cast<uint16_t>(next + jump);
      insert(next++);
    } else if (r < 0.62) {
      const int64_t burst = rng.UniformInt(20, 200);
      for (int64_t i = 0; i < burst; ++i) lose(next++);
    } else if (r < 0.63) {
      ring.ClearRetries();
      window.ClearRetries();
      if (rising_floor) floor = ring.highest();  // the decoder gives up
    } else {
      static constexpr int64_t kSteps[] = {0, 1, 10, 49, 50, 51};
      now_ms += kSteps[rng.UniformInt(0, 5)];
      if (rising_floor && rng.Bernoulli(0.2)) {
        floor = std::max(floor, ring.highest() - rng.UniformInt(-5, 300));
      }
      const int64_t collect_floor = rising_floor ? floor + 1 : INT64_MIN;
      const Timestamp now = Timestamp::Millis(now_ms);
      const auto expected = ring.Collect(now, collect_floor);
      ASSERT_EQ(window.Collect(now, collect_floor), expected)
          << "seed " << seed << " step " << step;
      coverage->nacks += expected.size();
      if (expected.size() == max_batch) ++coverage->capped_collects;
    }
    ASSERT_EQ(window.highest(), ring.highest())
        << "seed " << seed << " step " << step;
    ASSERT_EQ(window.retry_entries(), ring.retry_entries())
        << "seed " << seed << " step " << step;
  }
}

TEST(ReceiveWindowDifferential, MatchesFrozenRing) {
  // The jitter buffer's and the SFU uplink's configurations.
  for (const auto& [attempts, batch] :
       {std::pair<int, size_t>{6, 64}, std::pair<int, size_t>{4, 16}}) {
    RingScriptCoverage coverage;
    for (uint64_t seed = 1; seed <= 64; ++seed) {
      RunRingScript(seed, attempts, batch, &coverage);
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(coverage.nacks, 100000u);
    EXPECT_GT(coverage.capped_collects, 1000u);
    EXPECT_GT(coverage.jumps_of_256, 100u);
    EXPECT_GT(coverage.jumps_past_half_range, 100u);
  }
}

}  // namespace
}  // namespace gso
