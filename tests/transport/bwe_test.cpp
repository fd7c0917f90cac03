// Tests for the send-side BWE facade, driven by synthetic feedback.
#include "transport/send_side_bwe.h"

#include <gtest/gtest.h>

namespace gso::transport {
namespace {

// Drives a SendSideBwe with synthetic traffic through an idealized path of
// the given capacity and base delay, generating feedback every 100 ms.
class PathDriver {
 public:
  explicit PathDriver(DataRate capacity,
                      TimeDelta base_delay = TimeDelta::Millis(20))
      : capacity_(capacity), base_delay_(base_delay) {}

  // Sends at `rate` for `duration`; returns the estimate afterwards.
  DataRate Drive(SendSideBwe& bwe, DataRate rate, TimeDelta duration,
                 double loss = 0.0) {
    const TimeDelta packet_interval =
        DataSize::Bytes(1200) / rate;  // one MTU per tick
    const Timestamp end = now_ + duration;
    net::TransportFeedback feedback;
    feedback.sender_ssrc = Ssrc(1);
    Timestamp last_feedback = now_;
    while (now_ < end) {
      // Send one packet.
      bwe.OnPacketSent(seq_, now_, DataSize::Bytes(1200));
      // Arrival: serialized at capacity behind the queue.
      const TimeDelta tx = DataSize::Bytes(1200) / capacity_;
      queue_free_ = std::max(queue_free_, now_) + tx;
      const Timestamp arrival = queue_free_ + base_delay_;
      const bool lost = ((seq_ * 2654435761u) >> 16 & 0xFF) <
                        static_cast<uint32_t>(loss * 255);
      net::TransportFeedback::PacketResult r;
      r.sequence = seq_;
      r.received = !lost;
      if (feedback.packets.empty()) {
        feedback.base_time_ms = static_cast<uint32_t>(arrival.ms());
      }
      r.delta_250us = static_cast<uint32_t>(
          (arrival - Timestamp::Millis(feedback.base_time_ms)).us() / 250);
      feedback.packets.push_back(r);
      last_arrival_ = std::max(last_arrival_, arrival);
      ++seq_;
      now_ += packet_interval;
      if (now_ - last_feedback >= TimeDelta::Millis(100)) {
        // Feedback reaches the sender only after the packets arrived.
        bwe.OnFeedback(feedback,
                       std::max(now_, last_arrival_ + TimeDelta::Millis(20)));
        feedback.packets.clear();
        last_feedback = now_;
      }
    }
    return bwe.target_rate();
  }

  Timestamp now() const { return now_; }

 private:
  DataRate capacity_;
  TimeDelta base_delay_;
  Timestamp now_ = Timestamp::Millis(1);
  Timestamp queue_free_ = Timestamp::Zero();
  Timestamp last_arrival_ = Timestamp::Zero();
  uint16_t seq_ = 0;
};

TEST(SendSideBwe, GrowsWhenPathHasHeadroom) {
  SendSideBwe bwe(DataRate::KilobitsPerSec(300));
  PathDriver path(DataRate::MegabitsPerSec(10));
  // Send at the estimate; AIMD alone should lift it well above start.
  DataRate rate = bwe.target_rate();
  for (int i = 0; i < 40; ++i) {
    rate = path.Drive(bwe, rate, TimeDelta::Millis(500));
  }
  EXPECT_GT(rate, DataRate::KilobitsPerSec(600));
}

TEST(SendSideBwe, BacksOffWhenSendingAboveCapacity) {
  SendSideBwe bwe(DataRate::MegabitsPerSec(2));
  PathDriver path(DataRate::MegabitsPerSec(1));
  const DataRate rate =
      path.Drive(bwe, DataRate::MegabitsPerSec(2), TimeDelta::Seconds(3));
  EXPECT_LT(rate, DataRate::MegabitsPerSecF(1.2));
}

TEST(SendSideBwe, RandomLossWithoutQueueIsTolerated) {
  // 30% loss but no delay buildup (sending below capacity): the loss is
  // classified non-congestive and the estimate must not collapse.
  SendSideBwe bwe(DataRate::MegabitsPerSec(1));
  PathDriver path(DataRate::MegabitsPerSec(50));
  const DataRate rate = path.Drive(bwe, DataRate::MegabitsPerSec(1),
                                   TimeDelta::Seconds(5), /*loss=*/0.3);
  EXPECT_GE(rate, DataRate::KilobitsPerSec(900));
}

TEST(SendSideBwe, CongestiveLossCutsEstimate) {
  // Loss caused by a saturated 500 kbps path (standing queue): the
  // classifier must treat it as congestive and cut the estimate.
  SendSideBwe bwe(DataRate::MegabitsPerSec(2));
  PathDriver path(DataRate::KilobitsPerSec(500));
  const DataRate rate = path.Drive(bwe, DataRate::MegabitsPerSec(2),
                                   TimeDelta::Seconds(4), /*loss=*/0.2);
  EXPECT_LT(rate, DataRate::MegabitsPerSec(1));
}

TEST(SendSideBwe, ProbeClusterRaisesEstimate) {
  SendSideBwe bwe(DataRate::KilobitsPerSec(300));
  const Timestamp base = Timestamp::Millis(1000);
  // Deliver a probe cluster at ~2 Mbps arrival spacing.
  net::TransportFeedback feedback;
  feedback.sender_ssrc = Ssrc(1);
  feedback.base_time_ms = static_cast<uint32_t>(base.ms());
  for (uint16_t i = 0; i < 5; ++i) {
    const Timestamp send = base + TimeDelta::Millis(i * 2);
    bwe.OnPacketSent(i, send, DataSize::Bytes(500), /*probe_cluster_id=*/1);
    net::TransportFeedback::PacketResult r;
    r.sequence = i;
    r.received = true;
    // 500 B every 2 ms = 2 Mbps.
    r.delta_250us = static_cast<uint32_t>(i) * 8 + 80;
    feedback.packets.push_back(r);
  }
  bwe.OnFeedback(feedback, base + TimeDelta::Millis(40));
  // 0.85 * ~2 Mbps measured.
  EXPECT_GT(bwe.target_rate(), DataRate::MegabitsPerSec(1));
}

TEST(SendSideBwe, WantsProbeRespectsLossAndRecency) {
  SendSideBwe bwe(DataRate::KilobitsPerSec(300));
  // Fresh estimator with zero loss: after a quiet period it wants a probe.
  EXPECT_TRUE(bwe.WantsProbe(Timestamp::Seconds(10)));
  bwe.OnProbeSent(Timestamp::Seconds(10));
  EXPECT_FALSE(bwe.WantsProbe(Timestamp::Seconds(10) +
                              TimeDelta::Millis(500)));
  EXPECT_TRUE(bwe.WantsProbe(Timestamp::Seconds(13)));
}

TEST(SendSideBwe, FeedbackForUnknownSequencesIsIgnored) {
  SendSideBwe bwe(DataRate::KilobitsPerSec(300));
  const DataRate before = bwe.target_rate();
  net::TransportFeedback feedback;
  feedback.sender_ssrc = Ssrc(1);
  feedback.base_time_ms = 100;
  feedback.packets.push_back({999, true, 0});
  bwe.OnFeedback(feedback, Timestamp::Millis(200));
  EXPECT_EQ(bwe.target_rate(), before);
}

}  // namespace
}  // namespace gso::transport
