#include "transport/send_side_bwe.h"

#include <algorithm>

namespace gso::transport {
namespace {

constexpr DataRate kMinRate = DataRate::KilobitsPerSec(30);
constexpr DataRate kMaxRate = DataRate::MegabitsPerSec(20);

}  // namespace

SendSideBwe::SendSideBwe(DataRate start_rate)
    : aimd_(kMinRate, kMaxRate, start_rate),
      loss_based_(kMinRate, kMaxRate, start_rate),
      smoothed_loss_(/*alpha=*/0.3),
      acked_rate_(TimeDelta::Millis(750)),
      target_rate_(start_rate) {
  smoothed_loss_.Add(0.0);
}

void SendSideBwe::OnPacketSent(uint16_t transport_sequence,
                               Timestamp send_time, DataSize size,
                               std::optional<int> probe_cluster_id) {
  history_.OnPacketSent(transport_sequence, send_time, size, probe_cluster_id);
}

void SendSideBwe::OnFeedback(const net::TransportFeedback& feedback,
                             Timestamp now) {
  int received = 0;
  int lost = 0;
  for (const auto& p : feedback.packets) {
    const Timestamp receive_time =
        Timestamp::Millis(feedback.base_time_ms) +
        TimeDelta::Micros(static_cast<int64_t>(p.delta_250us) * 250);
    auto result = history_.Lookup(p.sequence, p.received, receive_time);
    if (!result) continue;
    if (result->received) {
      ++received;
      trendline_.Update(result->send_time, result->receive_time);
      acked_rate_.Update(result->receive_time, result->size);
      const TimeDelta owd = result->receive_time - result->send_time;
      min_owd_ = std::min(min_owd_, owd);
      owd_ewma_.Add(owd.ms_f());
      if (result->probe_cluster) {
        auto& cluster = probe_clusters_[*result->probe_cluster];
        ++cluster.arrivals;
        cluster.first_arrival =
            std::min(cluster.first_arrival, result->receive_time);
        if (result->receive_time > cluster.last_arrival) {
          cluster.last_arrival = result->receive_time;
          cluster.last_size = result->size;
        }
        cluster.bytes += result->size;
      }
    } else {
      ++lost;
    }
  }
  const int total = received + lost;
  if (total == 0) return;
  smoothed_loss_.Add(static_cast<double>(lost) / total);

  last_acked_throughput_ = acked_rate_.Rate(now);
  BandwidthUsage usage = trendline_.State();
  if (usage == BandwidthUsage::kOverusing) {
    if (now < overuse_suppressed_until_) {
      usage = BandwidthUsage::kNormal;  // probe wake; queue already gone
    } else {
      had_overuse_ = true;
      last_overuse_ = now;
    }
  }
  const DataRate delay_based =
      aimd_.Update(usage, last_acked_throughput_, now);
  // Loss-driven decreases apply only when the loss is plausibly
  // congestive — i.e. the delay detector saw queues building recently.
  // Random (wireless-style) loss without delay buildup is ridden out, the
  // way production stacks absorb it with FEC and retransmission; reacting
  // to it would starve the orchestrator for no reason (paper Fig. 8's
  // 30%/50% loss rows).
  const bool congestive =
      StandingQueue() ||
      (had_overuse_ && now - last_overuse_ < TimeDelta::Seconds(2));
  const DataRate loss_based = loss_based_.Update(
      congestive ? smoothed_loss_.value() : 0.0, now,
      last_acked_throughput_);

  target_rate_ = std::min(delay_based, loss_based);
  // Track *significant* raises only: the steady AIMD trickle must not
  // starve probing, which is the mechanism for big upward steps.
  if (target_rate_ > last_raise_mark_ * 1.25) {
    last_raise_mark_ = target_rate_;
    last_estimate_raise_ = now;
  } else if (target_rate_ < last_raise_mark_ * 0.8) {
    last_raise_mark_ = target_rate_;  // follow big drops down
  }

  EvaluateProbes();
}

void SendSideBwe::EvaluateProbes() {
  // A cluster is evaluable once >= 3 of its packets have arrived: estimate
  // the delivered rate across the cluster's arrival span and, if the path
  // demonstrably sustained more than the current target, raise the target
  // to 85% of the probe rate (conservative, per the paper's lesson on
  // controlling probe redundancy).
  for (auto it = probe_clusters_.begin(); it != probe_clusters_.end();) {
    const ProbeCluster& cluster = it->second;
    if (cluster.arrivals < 3) {
      ++it;
      continue;
    }
    const Timestamp first = cluster.first_arrival;
    const Timestamp last = cluster.last_arrival;
    if (last > first) {
      // Exclude the first packet's bytes from the span computation the same
      // way packet-train dispersion estimators do.
      const DataRate probe_rate = (cluster.bytes - cluster.last_size) /
                                  (last - first);
      const DataRate capped = std::min(probe_rate * 0.85, kMaxRate);
      if (capped > target_rate_) {
        target_rate_ = capped;
        aimd_.SetEstimate(capped, last);
        loss_based_.SetEstimate(capped);
        last_estimate_raise_ = last;
      }
    }
    it = probe_clusters_.erase(it);
  }
  // Clusters still short of 3 arrivals after newer rounds have come and
  // gone lost their remaining feedback and can never complete; drop them
  // instead of accumulating one per probe-into-loss episode. Cluster ids
  // are monotone, so "two rounds behind the newest" is strictly older
  // probing.
  if (!probe_clusters_.empty()) {
    const int newest = probe_clusters_.rbegin()->first;
    for (auto it = probe_clusters_.begin(); it != probe_clusters_.end();) {
      if (it->first >= newest - 1) break;  // ordered by id
      it = probe_clusters_.erase(it);
    }
  }
}

bool SendSideBwe::WantsProbe(Timestamp now) const {
  // Probing discipline (paper §7 + standard ALR probing):
  //  - never while backing off or shortly after any decrease,
  //  - never on a lossy path,
  //  - only when application-limited (acked well below the estimate —
  //    the path above current traffic is unproven, so a paced burst is
  //    the only way to learn it),
  //  - not once the estimate already dwarfs the demand (nothing to learn),
  //  - at most one cluster per second.
  if (aimd_.InDecrease()) return false;
  const auto aimd_decrease = aimd_.last_decrease_time();
  if (aimd_decrease && now - *aimd_decrease < TimeDelta::MillisF(1500)) {
    return false;
  }
  const Timestamp loss_decrease = loss_based_.last_decrease_time();
  if (loss_decrease.IsFinite() &&
      now - loss_decrease < TimeDelta::MillisF(1500)) {
    return false;
  }
  if (smoothed_loss_.value() > 0.08) return false;
  // Stop probing once the estimate already dwarfs the demand — there is
  // nothing left to learn and padding would only burn bandwidth.
  const DataRate learn_ceiling = std::max(
      last_acked_throughput_ * 4.0, DataRate::KilobitsPerSec(600));
  if (target_rate_ > learn_ceiling) return false;
  return now - last_probe_time_ > TimeDelta::Seconds(1) &&
         now - last_estimate_raise_ > TimeDelta::MillisF(1500);
}

}  // namespace gso::transport
