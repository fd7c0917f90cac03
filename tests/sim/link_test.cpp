// Tests for the simulated link: serialization timing, loss models,
// droptail queueing, jitter, runtime reconfiguration, and the in-flight
// slots (owner cancellation, and a differential test against a frozen copy
// of the closure-per-packet link they replaced).
#include "sim/link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "sim/duplex_link.h"

namespace gso::sim {
namespace {

Packet MakePacket(int64_t bytes) {
  Packet p;
  p.wire_size = DataSize::Bytes(bytes);
  return p;
}

TEST(Link, DeliversWithPropagationDelay) {
  EventLoop loop;
  LinkConfig config;
  config.capacity = DataRate::MegabitsPerSec(8);
  config.propagation_delay = TimeDelta::Millis(25);
  Link link(&loop, config, Rng(1));
  Timestamp delivered;
  link.SetSink([&](const Packet&) { delivered = loop.Now(); });
  link.Send(MakePacket(1000));  // 1 ms serialization at 8 Mbps
  loop.RunAll();
  EXPECT_EQ(delivered, Timestamp::Millis(26));
}

TEST(Link, SerializationQueuesBackToBack) {
  EventLoop loop;
  LinkConfig config;
  config.capacity = DataRate::MegabitsPerSec(1);  // 8 ms per 1000 B
  config.propagation_delay = TimeDelta::Zero();
  Link link(&loop, config, Rng(1));
  std::vector<Timestamp> deliveries;
  link.SetSink([&](const Packet&) { deliveries.push_back(loop.Now()); });
  for (int i = 0; i < 3; ++i) link.Send(MakePacket(1000));
  loop.RunAll();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], Timestamp::Millis(8));
  EXPECT_EQ(deliveries[1], Timestamp::Millis(16));
  EXPECT_EQ(deliveries[2], Timestamp::Millis(24));
}

TEST(Link, ThroughputMatchesCapacity) {
  EventLoop loop;
  LinkConfig config;
  config.capacity = DataRate::MegabitsPerSec(2);
  config.max_queue_delay = TimeDelta::Seconds(10);  // no drops
  Link link(&loop, config, Rng(2));
  DataSize delivered;
  Timestamp last;
  link.SetSink([&](const Packet& p) {
    delivered += p.wire_size;
    last = loop.Now();
  });
  // Offer 4 Mbps for 2 seconds; only ~2 Mbps can get through per second.
  loop.Every(TimeDelta::Millis(2), [&] {
    link.Send(MakePacket(1000));
    return loop.Now() < Timestamp::Seconds(2);
  });
  loop.RunAll();
  const double mbps = static_cast<double>(delivered.bits()) / last.seconds() / 1e6;
  EXPECT_NEAR(mbps, 2.0, 0.05);
}

TEST(Link, DroptailDropsWhenQueueExceedsBound) {
  EventLoop loop;
  LinkConfig config;
  config.capacity = DataRate::MegabitsPerSec(1);
  config.max_queue_delay = TimeDelta::Millis(50);
  Link link(&loop, config, Rng(3));
  link.SetSink([](const Packet&) {});
  // Burst of 100 x 1000 B = 800 ms of serialization; only ~ first 58 ms
  // worth is accepted.
  for (int i = 0; i < 100; ++i) link.Send(MakePacket(1000));
  loop.RunAll();
  EXPECT_GT(link.stats().packets_dropped_queue, 80);
  EXPECT_LT(link.stats().packets_delivered, 20);
  EXPECT_EQ(link.stats().packets_sent, 100);
}

TEST(Link, BernoulliLossApproximatesRate) {
  EventLoop loop;
  LinkConfig config;
  config.capacity = DataRate::MegabitsPerSec(100);
  config.loss_rate = 0.3;
  Link link(&loop, config, Rng(4));
  int delivered = 0;
  link.SetSink([&](const Packet&) { ++delivered; });
  const int n = 20000;
  loop.Every(TimeDelta::Micros(50), [&] {
    link.Send(MakePacket(100));
    return link.stats().packets_sent < n;
  });
  loop.RunAll();
  EXPECT_NEAR(link.stats().LossFraction(), 0.3, 0.02);
}

TEST(Link, GilbertElliottProducesBurstyLoss) {
  EventLoop loop;
  LinkConfig config;
  config.capacity = DataRate::MegabitsPerSec(100);
  config.gilbert_elliott = true;
  config.ge_p_good_to_bad = 0.02;
  config.ge_p_bad_to_good = 0.2;
  config.ge_loss_in_bad = 0.8;
  Link link(&loop, config, Rng(5));
  std::vector<bool> outcomes;
  int sent_index = 0;
  link.SetSink([&](const Packet&) {});
  // Track loss runs via stats deltas.
  int64_t last_lost = 0;
  std::vector<int> loss_run_lengths;
  int current_run = 0;
  loop.Every(TimeDelta::Micros(100), [&] {
    link.Send(MakePacket(100));
    const int64_t lost = link.stats().packets_dropped_loss;
    if (lost > last_lost) {
      ++current_run;
    } else if (current_run > 0) {
      loss_run_lengths.push_back(current_run);
      current_run = 0;
    }
    last_lost = lost;
    ++sent_index;
    return sent_index < 50000;
  });
  loop.RunAll();
  // Overall loss ~ steady-state: p_bad = 0.02/(0.02+0.2) = 0.0909 x 0.8.
  EXPECT_NEAR(link.stats().LossFraction(), 0.0909 * 0.8, 0.02);
  // Bursts exist: some runs exceed 2 consecutive losses.
  int long_runs = 0;
  for (int run : loss_run_lengths) {
    if (run >= 3) ++long_runs;
  }
  EXPECT_GT(long_runs, 5);
}

TEST(Link, JitterSpreadsDeliveries) {
  EventLoop loop;
  LinkConfig config;
  config.capacity = DataRate::MegabitsPerSec(100);
  config.propagation_delay = TimeDelta::Millis(10);
  config.jitter_stddev = TimeDelta::Millis(20);
  Link link(&loop, config, Rng(6));
  std::vector<Timestamp> deliveries;
  link.SetSink([&](const Packet&) { deliveries.push_back(loop.Now()); });
  for (int i = 0; i < 500; ++i) {
    loop.At(Timestamp::Millis(i), [&] { link.Send(MakePacket(100)); });
  }
  loop.RunAll();
  ASSERT_GT(deliveries.size(), 400u);
  // With |N(0, 20ms)| extra delay, mean extra ~ 16 ms; check spread exists.
  double max_extra = 0;
  for (size_t i = 0; i < deliveries.size(); ++i) {
    max_extra = std::max(max_extra, deliveries[i].seconds());
  }
  EXPECT_GT(max_extra, 0.5);  // deliveries extend beyond the send window
}

TEST(Link, NoReorderingWhenDisabled) {
  EventLoop loop;
  LinkConfig config;
  config.capacity = DataRate::MegabitsPerSec(100);
  config.jitter_stddev = TimeDelta::Millis(30);
  config.allow_reordering = false;
  Link link(&loop, config, Rng(7));
  Timestamp last = Timestamp::Zero();
  bool monotone = true;
  link.SetSink([&](const Packet&) {
    if (loop.Now() < last) monotone = false;
    last = loop.Now();
  });
  for (int i = 0; i < 1000; ++i) {
    loop.At(Timestamp::Millis(i), [&] { link.Send(MakePacket(100)); });
  }
  loop.RunAll();
  EXPECT_TRUE(monotone);
}

TEST(Link, RuntimeCapacityChangeTakesEffect) {
  EventLoop loop;
  LinkConfig config;
  config.capacity = DataRate::MegabitsPerSec(1);
  config.propagation_delay = TimeDelta::Zero();
  Link link(&loop, config, Rng(8));
  std::vector<Timestamp> deliveries;
  link.SetSink([&](const Packet&) { deliveries.push_back(loop.Now()); });
  link.Send(MakePacket(1000));  // 8 ms at 1 Mbps
  loop.RunAll();
  link.SetCapacity(DataRate::MegabitsPerSec(8));
  link.Send(MakePacket(1000));  // 1 ms at 8 Mbps
  loop.RunAll();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[1] - deliveries[0], TimeDelta::Millis(1));
}

TEST(Link, PayloadBytesSurviveTransit) {
  EventLoop loop;
  Link link(&loop, LinkConfig{}, Rng(9));
  std::vector<uint8_t> received;
  link.SetSink([&](const Packet& p) {
    received.assign(p.data.begin(), p.data.end());
  });
  Packet p;
  p.data = {1, 2, 3, 4, 5};
  p.wire_size = DataSize::Bytes(100);
  link.Send(p);
  loop.RunAll();
  EXPECT_EQ(received, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
}

// Datagrams of every size cross a link unchanged: empty, the largest
// inline size, the smallest heap size and a ~1 KB compound.
TEST(Link, BytesOfEverySizeSurviveTransit) {
  EventLoop loop;
  Link link(&loop, LinkConfig{}, Rng(9));
  std::vector<std::vector<uint8_t>> received;
  link.SetSink([&](const Packet& p) {
    received.emplace_back(p.data.begin(), p.data.end());
  });
  std::vector<std::vector<uint8_t>> sent;
  for (const size_t size : {size_t{0}, PacketBytes::kInline,
                            PacketBytes::kInline + 1, size_t{1021}}) {
    std::vector<uint8_t> bytes(size);
    for (size_t i = 0; i < size; ++i) {
      bytes[i] = static_cast<uint8_t>(i * 7 + size);
    }
    Packet p;
    p.data = PacketBytes(bytes);
    p.wire_size = DataSize::Bytes(static_cast<int64_t>(size) + 28);
    link.Send(p);  // a copy; `p` still owns its bytes
    EXPECT_TRUE(std::ranges::equal(p.data, bytes));
    link.Send(std::move(p));
    sent.push_back(bytes);
    sent.push_back(bytes);
  }
  loop.RunAll();
  EXPECT_EQ(received, sent);
}

TEST(PacketBytes, CopiesAndMovesKeepTheBytes) {
  for (const size_t size : {size_t{3}, size_t{200}}) {
    std::vector<uint8_t> bytes(size);
    for (size_t i = 0; i < size; ++i) bytes[i] = static_cast<uint8_t>(i);
    PacketBytes a(bytes);
    PacketBytes b = a;
    EXPECT_TRUE(std::ranges::equal(a, bytes));
    EXPECT_TRUE(std::ranges::equal(b, bytes));
    PacketBytes c = std::move(a);
    EXPECT_TRUE(std::ranges::equal(c, bytes));
    EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
    b = PacketBytes{9, 8};
    EXPECT_EQ(std::vector<uint8_t>(b.begin(), b.end()),
              (std::vector<uint8_t>{9, 8}));
    const PacketBytes& self = c;
    c = self;
    EXPECT_TRUE(std::ranges::equal(c, bytes));
  }
}

TEST(LinkConfigPresets, FactoryPresetsSetExpectedFields) {
  const LinkConfig backbone = LinkConfig::Backbone();
  EXPECT_EQ(backbone.capacity, DataRate::MegabitsPerSec(1000));
  EXPECT_EQ(backbone.propagation_delay, TimeDelta::Millis(30));
  EXPECT_EQ(backbone.max_queue_delay, TimeDelta::Millis(500));
  EXPECT_FALSE(backbone.gilbert_elliott);

  const LinkConfig wifi = LinkConfig::Wifi(DataRate::MegabitsPerSec(5));
  EXPECT_EQ(wifi.capacity, DataRate::MegabitsPerSec(5));
  EXPECT_EQ(wifi.jitter_stddev, TimeDelta::Millis(2));

  // Lossy(): the requested stationary Bad-state probability must come out
  // of the Gilbert-Elliott transition rates it configures.
  const double bad_fraction = 0.05;
  const LinkConfig lossy = LinkConfig::Lossy(DataRate::MegabitsPerSec(2),
                                             bad_fraction);
  EXPECT_TRUE(lossy.gilbert_elliott);
  const double stationary =
      lossy.ge_p_good_to_bad /
      (lossy.ge_p_good_to_bad + lossy.ge_p_bad_to_good);
  EXPECT_NEAR(stationary, bad_fraction, 1e-12);

  const DuplexLinkConfig duplex = DuplexLinkConfig::Symmetric(wifi);
  EXPECT_EQ(duplex.uplink.capacity, wifi.capacity);
  EXPECT_EQ(duplex.downlink.capacity, wifi.capacity);
}

// A send dropped at scheduling time (its owner is cancelled) must not
// claim an in-flight slot: the next send still arrives.
TEST(Link, SendUnderCancelledOwnerLeavesNothingInFlight) {
  EventLoop loop;
  Link link(&loop, LinkConfig{}, Rng(10));
  std::vector<uint8_t> received;
  link.SetSink([&](const Packet& p) { received.push_back(p.data[0]); });
  const uint64_t owner = loop.NewOwner();
  loop.Cancel(owner);
  {
    const EventLoop::OwnerScope scope(&loop, owner);
    link.Send(Packet{{1}, DataSize::Bytes(100), loop.Now()});
  }
  EXPECT_EQ(link.in_flight(), 0u);
  link.Send(Packet{{2}, DataSize::Bytes(100), loop.Now()});
  EXPECT_EQ(link.in_flight(), 1u);
  loop.RunAll();
  EXPECT_EQ(received, (std::vector<uint8_t>{2}));
  EXPECT_EQ(link.in_flight(), 0u);
}

// A delivery whose owner is cancelled while it is in flight never fires:
// its packet stays in its slot, and the link keeps carrying other owners'
// packets. Only the stranded slot is lost until the link dies.
TEST(Link, CancelledDeliveryStrandsOnlyItsSlot) {
  EventLoop loop;
  Link link(&loop, LinkConfig{}, Rng(11));
  std::vector<uint8_t> received;
  link.SetSink([&](const Packet& p) { received.push_back(p.data[0]); });
  const uint64_t a = loop.NewOwner();
  const uint64_t b = loop.NewOwner();
  {
    const EventLoop::OwnerScope scope(&loop, a);
    link.Send(Packet{{1}, DataSize::Bytes(100), loop.Now()});
  }
  loop.Cancel(a);
  {
    const EventLoop::OwnerScope scope(&loop, b);
    link.Send(Packet{{2}, DataSize::Bytes(100), loop.Now()});
  }
  EXPECT_EQ(link.in_flight(), 2u);
  loop.RunAll();
  EXPECT_EQ(received, (std::vector<uint8_t>{2}));
  EXPECT_EQ(link.in_flight(), 1u);  // A's packet, stranded in its slot
  // The freed slot is reused; the stranded one is not.
  link.Send(Packet{{3}, DataSize::Bytes(100), loop.Now()});
  EXPECT_EQ(link.in_flight(), 2u);
  loop.RunAll();
  EXPECT_EQ(received, (std::vector<uint8_t>{2, 3}));
  EXPECT_EQ(link.in_flight(), 1u);
}

// --- Differential test against the closure-per-packet link ---------------
//
// Frozen copy of Link before in-flight packets moved into the link: each
// send scheduled a closure that owned its packet.
class ClosureLinkReference {
 public:
  ClosureLinkReference(EventLoop* loop, LinkConfig config, Rng rng)
      : loop_(loop), config_(config), rng_(rng) {}

  void SetSink(Link::Sink sink) { sink_ = std::move(sink); }
  void SetCapacity(DataRate capacity) { config_.capacity = capacity; }
  void SetJitter(TimeDelta stddev) { config_.jitter_stddev = stddev; }
  void SetLossRate(double loss) { config_.loss_rate = loss; }
  void SetBurstLoss(bool enabled, double bad_fraction = 0.032) {
    config_.gilbert_elliott = enabled;
    if (enabled) {
      config_.ge_p_good_to_bad =
          config_.ge_p_bad_to_good * bad_fraction / (1.0 - bad_fraction);
    }
  }
  void SetUp(bool up) { up_ = up; }
  const LinkStats& stats() const { return stats_; }

  void Send(Packet packet) {
    ++stats_.packets_sent;
    if (!up_) {
      ++stats_.packets_dropped_down;
      return;
    }
    const Timestamp now = loop_->Now();
    const TimeDelta backlog =
        busy_until_ > now ? busy_until_ - now : TimeDelta::Zero();
    if (backlog > config_.max_queue_delay) {
      ++stats_.packets_dropped_queue;
      return;
    }
    const TimeDelta tx_time = packet.wire_size / config_.capacity;
    const Timestamp start = std::max(now, busy_until_);
    busy_until_ = start + tx_time;
    if (DrawLoss()) {
      ++stats_.packets_dropped_loss;
      return;
    }
    TimeDelta jitter = TimeDelta::Zero();
    if (!config_.jitter_stddev.IsZero()) {
      jitter = TimeDelta::Micros(static_cast<int64_t>(
          std::abs(rng_.Normal(0.0, static_cast<double>(
                                        config_.jitter_stddev.us())))));
    }
    Timestamp delivery = busy_until_ + config_.propagation_delay + jitter;
    if (!config_.allow_reordering && delivery < last_delivery_) {
      delivery = last_delivery_;
    }
    last_delivery_ = delivery;
    loop_->At(delivery, [this, p = std::move(packet)]() {
      ++stats_.packets_delivered;
      stats_.bytes_delivered += p.wire_size;
      if (sink_) sink_(p);
    });
  }

 private:
  bool DrawLoss() {
    if (config_.gilbert_elliott) {
      if (ge_in_bad_state_) {
        if (rng_.Bernoulli(config_.ge_p_bad_to_good)) ge_in_bad_state_ = false;
      } else {
        if (rng_.Bernoulli(config_.ge_p_good_to_bad)) ge_in_bad_state_ = true;
      }
      return rng_.Bernoulli(ge_in_bad_state_ ? config_.ge_loss_in_bad : 0.0);
    }
    return config_.loss_rate > 0.0 && rng_.Bernoulli(config_.loss_rate);
  }

  EventLoop* loop_;
  LinkConfig config_;
  Rng rng_;
  Link::Sink sink_;
  LinkStats stats_;
  Timestamp busy_until_ = Timestamp::Zero();
  Timestamp last_delivery_ = Timestamp::Zero();
  bool ge_in_bad_state_ = false;
  bool up_ = true;
};

// (delivery time, packet id) in delivery order.
using DeliveryLog = std::vector<std::tuple<Timestamp, uint32_t>>;

Packet IdPacket(uint32_t id, int64_t bytes, Timestamp now) {
  return Packet{{static_cast<uint8_t>(id >> 24), static_cast<uint8_t>(id >> 16),
                 static_cast<uint8_t>(id >> 8), static_cast<uint8_t>(id)},
                DataSize::Bytes(bytes), now};
}

uint32_t IdOf(const Packet& p) {
  return static_cast<uint32_t>(p.data[0]) << 24 |
         static_cast<uint32_t>(p.data[1]) << 16 |
         static_cast<uint32_t>(p.data[2]) << 8 | p.data[3];
}

// Four seconds of a seeded script on one link: bursts of sends, runtime
// capacity/jitter/loss changes and outages, and a sink that answers some
// packets on the same link from inside the delivery. Both link kinds see
// the same script and the same link Rng seed.
template <typename L>
DeliveryLog DriveLink(uint64_t seed, bool allow_reordering, LinkStats* stats) {
  EventLoop loop;
  LinkConfig config = LinkConfig::Wifi(DataRate::MegabitsPerSec(4));
  config.jitter_stddev = TimeDelta::Millis(15);
  config.allow_reordering = allow_reordering;
  config.max_queue_delay = TimeDelta::Millis(100);
  L link(&loop, config, Rng(seed));
  DeliveryLog log;
  uint32_t next_echo = 1u << 30;
  link.SetSink([&](const Packet& p) {
    const uint32_t id = IdOf(p);
    log.emplace_back(loop.Now(), id);
    if (id % 5 == 0 && id < (1u << 30)) {
      link.Send(IdPacket(next_echo++, 200, loop.Now()));
    }
  });

  Rng script(seed ^ 0x5eedull);
  uint32_t next_id = 0;
  for (int64_t ms = 0; ms < 4000; ++ms) {
    const Timestamp at = Timestamp::Millis(ms);
    for (int64_t n = script.UniformInt(0, 3); n > 0; --n) {
      const uint32_t id = next_id++;
      const int64_t bytes = script.UniformInt(60, 1400);
      loop.At(at, [&link, &loop, id, bytes] {
        link.Send(IdPacket(id, bytes, loop.Now()));
      });
    }
    const double r = script.NextDouble();
    if (r < 0.002) {
      const DataRate rate =
          DataRate::KilobitsPerSec(script.UniformInt(500, 8000));
      loop.At(at, [&link, rate] { link.SetCapacity(rate); });
    } else if (r < 0.004) {
      const TimeDelta jitter = TimeDelta::Millis(script.UniformInt(0, 40));
      loop.At(at, [&link, jitter] { link.SetJitter(jitter); });
    } else if (r < 0.005) {
      const double loss = 0.2 * script.NextDouble();
      loop.At(at, [&link, loss] { link.SetLossRate(loss); });
    } else if (r < 0.006) {
      const bool burst = script.Bernoulli(0.5);
      loop.At(at, [&link, burst] { link.SetBurstLoss(burst, 0.05); });
    } else if (r < 0.007) {
      loop.At(at, [&link] { link.SetUp(false); });
      loop.At(at + TimeDelta::Millis(script.UniformInt(10, 200)),
              [&link] { link.SetUp(true); });
    }
  }
  loop.RunAll();
  *stats = link.stats();
  return log;
}

TEST(LinkDifferential, MatchesClosurePerPacketLink) {
  size_t reordered = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    for (const bool allow_reordering : {true, false}) {
      LinkStats expected_stats;
      LinkStats stats;
      const DeliveryLog expected = DriveLink<ClosureLinkReference>(
          seed, allow_reordering, &expected_stats);
      const DeliveryLog got = DriveLink<Link>(seed, allow_reordering, &stats);
      ASSERT_EQ(got, expected) << "seed " << seed;
      EXPECT_EQ(stats.packets_sent, expected_stats.packets_sent);
      EXPECT_EQ(stats.packets_delivered, expected_stats.packets_delivered);
      EXPECT_EQ(stats.packets_dropped_queue,
                expected_stats.packets_dropped_queue);
      EXPECT_EQ(stats.packets_dropped_loss,
                expected_stats.packets_dropped_loss);
      EXPECT_EQ(stats.packets_dropped_down,
                expected_stats.packets_dropped_down);
      EXPECT_EQ(stats.bytes_delivered, expected_stats.bytes_delivered);
      for (size_t i = 1; i < got.size(); ++i) {
        const uint32_t a = std::get<1>(got[i - 1]);
        const uint32_t b = std::get<1>(got[i]);
        if (a < (1u << 30) && b < (1u << 30) && b < a) ++reordered;
      }
    }
  }
  EXPECT_GT(reordered, 1000u);  // the jitter really reorders
}

}  // namespace
}  // namespace gso::sim
