// Sender-side bandwidth estimation facade (paper §4.2: "we rely on
// sender-side bandwidth estimation, which offers better accuracy").
//
// Combines the delay-gradient detector + AIMD controller with the
// loss-based controller; the published estimate is the minimum of the two.
// Also evaluates probe clusters (paper §7 "Addressing bandwidth
// over-estimation": short paced bursts probe the upper bound because
// GCC-like controllers over-estimate under small streams).
#ifndef GSO_TRANSPORT_SEND_SIDE_BWE_H_
#define GSO_TRANSPORT_SEND_SIDE_BWE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>

#include "common/stats.h"
#include "common/units.h"
#include "net/rtcp_packets.h"
#include "transport/aimd_rate_control.h"
#include "transport/loss_based_control.h"
#include "transport/packet_history.h"
#include "transport/trendline_estimator.h"

namespace gso::transport {

// Probe-cluster shape shared by client and node probers: a short train at
// a modest multiple of the estimate. The multiple and train length are
// chosen so that, when the link is already at capacity, the self-inflicted
// queue stays below the delay-gradient overuse threshold — probing must
// discover headroom without triggering a back-off (paper §7).
inline constexpr double kProbeRateFactor = 1.5;
inline constexpr int kProbePacketCount = 4;
inline constexpr int64_t kProbePacketBytes = 400;

class SendSideBwe {
 public:
  // The estimate starts at `start_rate` and stays within [30 kbps, 20 Mbps].
  explicit SendSideBwe(DataRate start_rate);

  // Records an outgoing packet. `probe_cluster_id` groups probe packets.
  void OnPacketSent(uint16_t transport_sequence, Timestamp send_time,
                    DataSize size,
                    std::optional<int> probe_cluster_id = std::nullopt);

  // Ingests a transport-wide feedback report (receiver's arrival log).
  void OnFeedback(const net::TransportFeedback& feedback, Timestamp now);

  DataRate target_rate() const { return target_rate_; }
  double loss_fraction() const { return smoothed_loss_.value(); }
  // The estimate reported to the controller, discounted by residual loss
  // so a lossy link gets smaller streams and retransmission keeps pace.
  DataRate ReportedRate() const {
    return target_rate_ * (1.0 - 0.8 * std::min(loss_fraction(), 0.6));
  }
  // True while the one-way delay sits well above its baseline: a standing
  // bottleneck queue (the observable form of real congestion).
  bool StandingQueue() const {
    return min_owd_.IsFinite() && owd_ewma_.initialized() &&
           owd_ewma_.value() - min_owd_.ms_f() > 80.0;
  }
  DataRate acked_throughput() const { return last_acked_throughput_; }
  BandwidthUsage detector_state() const { return trendline_.State(); }

  // True when conditions favour sending a probe cluster: we are not backing
  // off and the estimate has been flat for a while.
  bool WantsProbe(Timestamp now) const;
  void OnProbeSent(Timestamp now) {
    last_probe_time_ = now;
    overuse_suppressed_until_ = now + TimeDelta::MillisF(350);
  }

 private:
  // Arrivals of one probe cluster so far.
  struct ProbeCluster {
    int arrivals = 0;
    Timestamp first_arrival = Timestamp::PlusInfinity();
    Timestamp last_arrival = Timestamp::Zero();
    DataSize bytes;
    DataSize last_size;  // of the packet that arrived last
  };

  void EvaluateProbes();

  PacketHistory history_;
  TrendlineEstimator trendline_;
  AimdRateControl aimd_;
  LossBasedControl loss_based_;
  Ewma smoothed_loss_;
  WindowedRateEstimator acked_rate_;
  DataRate last_acked_throughput_;
  DataRate target_rate_;
  Timestamp last_probe_time_ = Timestamp::Zero();
  Timestamp last_estimate_raise_ = Timestamp::Zero();
  Timestamp last_overuse_ = Timestamp::Zero();
  bool had_overuse_ = false;
  // Overuse reactions are suppressed briefly after a probe: the probe's
  // own 4-packet queue drains in milliseconds but pollutes one detector
  // window; reacting would undo the raise the probe just earned.
  Timestamp overuse_suppressed_until_ = Timestamp::Zero();
  // One-way-delay tracking for congestive-loss classification: a standing
  // bottleneck queue inflates OWD above the baseline even when the
  // delay *gradient* is flat (droptail queue pegged at its cap).
  TimeDelta min_owd_ = TimeDelta::PlusInfinity();
  Ewma owd_ewma_{/*alpha=*/0.1};
  DataRate last_raise_mark_ = DataRate::KilobitsPerSec(1);

  std::map<int, ProbeCluster> probe_clusters_;  // by cluster id
};

}  // namespace gso::transport

#endif  // GSO_TRANSPORT_SEND_SIDE_BWE_H_
