// Paced packet sender with probe-cluster support.
//
// Media packets are queued and released at the pacing rate (a multiple of
// the target rate so queues drain promptly). Probe clusters are short
// bursts paced at a higher rate used to probe the bandwidth upper bound
// (paper §7: GCC over-estimates under small streams, so GSO probes with
// pacer-controlled bursts before trusting an estimate raise).
//
// The queue holds the RTP packets themselves, each charged
// Egress::WireSize, and a probe cluster is one record: nothing is built per
// packet. Every release goes to the Sink the owner installs once; the loop
// wake-up that times it captures only `this`.
#ifndef GSO_TRANSPORT_PACER_H_
#define GSO_TRANSPORT_PACER_H_

#include <algorithm>
#include <deque>
#include <functional>

#include "common/logging.h"
#include "common/units.h"
#include "net/rtp_packet.h"
#include "sim/event_loop.h"
#include "transport/egress.h"

namespace gso::transport {

// Media is paced at this multiple of the target rate.
inline constexpr double kPacingFactor = 2.5;

class Pacer {
 public:
  // Where released packets go: `media` transmits a paced media packet,
  // `probe` one probe-padding packet of the given cluster.
  struct Sink {
    std::function<void(const net::RtpPacket&)> media;
    std::function<void(int cluster_id)> probe;
  };

  Pacer(sim::EventLoop* loop, DataRate initial_rate, Sink sink)
      : loop_(loop), pacing_rate_(initial_rate * kPacingFactor),
        sink_(std::move(sink)) {}

  void SetTargetRate(DataRate rate) { pacing_rate_ = rate * kPacingFactor; }

  // Enqueues one media packet for paced transmission.
  void Enqueue(const net::RtpPacket& packet) {
    backlog_ += Egress::WireSize(packet);
    queue_.push_back(packet);
    MaybeSchedule();
  }

  // Queues `count` probe packets of `size` paced at `probe_rate`. Probe
  // packets jump ahead of media so the burst shape is preserved. The
  // previous cluster must have drained: the BWE asks for at most one per
  // second, and a cluster drains in well under that even at its floor rate.
  void SendProbeCluster(int cluster_id, DataRate probe_rate, int count,
                        DataSize size) {
    GSO_CHECK(probe_.packets_left == 0);
    probe_ = ProbeCluster{cluster_id, count, size, probe_rate};
    MaybeSchedule();
  }

  size_t queue_size() const {
    return queue_.size() + static_cast<size_t>(probe_.packets_left);
  }
  // Time the queued media takes to drain at the pacing rate.
  TimeDelta QueueDelay() const { return backlog_ / pacing_rate_; }

 private:
  struct ProbeCluster {
    int id = 0;
    int packets_left = 0;
    DataSize packet_size;
    DataRate rate;
  };

  void MaybeSchedule() {
    if (scheduled_) return;
    scheduled_ = true;
    const Timestamp when = std::max(next_send_time_, loop_->Now());
    loop_->At(when, [this] { Process(); });
  }

  // Releases one packet, probes first, and books the next release after
  // its size at its rate.
  void Process() {
    scheduled_ = false;
    if (probe_.packets_left > 0) {
      --probe_.packets_left;
      sink_.probe(probe_.id);
      next_send_time_ = loop_->Now() + probe_.packet_size / probe_.rate;
    } else if (!queue_.empty()) {
      const net::RtpPacket packet = queue_.front();
      queue_.pop_front();
      const DataSize size = Egress::WireSize(packet);
      backlog_ -= size;
      sink_.media(packet);
      next_send_time_ = loop_->Now() + size / pacing_rate_;
    } else {
      return;
    }
    if (queue_size() > 0) MaybeSchedule();
  }

  sim::EventLoop* loop_;
  DataRate pacing_rate_;
  Sink sink_;
  std::deque<net::RtpPacket> queue_;
  DataSize backlog_;  // summed wire size of queue_
  ProbeCluster probe_;
  Timestamp next_send_time_ = Timestamp::Zero();
  bool scheduled_ = false;
};

}  // namespace gso::transport

#endif  // GSO_TRANSPORT_PACER_H_
