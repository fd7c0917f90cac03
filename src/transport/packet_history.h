// Sent-packet bookkeeping for transport-wide feedback.
//
// The sender records (transport sequence -> send time, size); when a
// TransportFeedback arrives, ProcessFeedback() joins receive times against
// this history to produce PacketResult samples for the estimators.
#ifndef GSO_TRANSPORT_PACKET_HISTORY_H_
#define GSO_TRANSPORT_PACKET_HISTORY_H_

#include <cstdint>
#include <map>
#include <optional>

#include "common/sequence.h"
#include "common/units.h"

namespace gso::transport {

struct SentPacket {
  Timestamp send_time;
  DataSize size;
  std::optional<int> probe_cluster;
};

// One joined feedback sample: a packet we sent together with its fate.
struct PacketResult {
  int64_t sequence = 0;  // unwrapped transport-wide sequence
  Timestamp send_time;
  DataSize size;
  bool received = false;
  Timestamp receive_time;  // valid when received
  std::optional<int> probe_cluster;  // set for probe padding
};

class PacketHistory {
 public:
  // Remembers a sent packet under its (wrapping) transport sequence number.
  void OnPacketSent(uint16_t transport_sequence, Timestamp send_time,
                    DataSize size,
                    std::optional<int> probe_cluster = std::nullopt) {
    const int64_t seq = send_unwrapper_.Unwrap(transport_sequence);
    history_[seq] = SentPacket{send_time, size, probe_cluster};
    // Bound memory two ways. The size cap handles bursts; the age cap
    // handles *feedback loss*: when the feedback packet itself is dropped,
    // its packets are never looked up, and without an age-out each loss
    // episode would strand another batch of entries until the size cap
    // engaged (a leak-shaped plateau the soak harness flagged).
    while (history_.size() > kMaxTrackedPackets) {
      history_.erase(history_.begin());
    }
    const Timestamp horizon = send_time - kFeedbackHorizon;
    while (!history_.empty() &&
           history_.begin()->second.send_time < horizon) {
      history_.erase(history_.begin());
    }
  }

  // Joins one feedback entry against the history. Returns nullopt for
  // packets we no longer (or never) track.
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
  static constexpr size_t kMaxTrackedPackets = 10000;
  // Far beyond any feedback RTT (feedback ticks every ~100 ms): an entry
  // this old can only belong to a lost feedback packet.
  static constexpr TimeDelta kFeedbackHorizon = TimeDelta::Seconds(5);

  SequenceUnwrapper send_unwrapper_;
  SequenceUnwrapper feedback_unwrapper_;
  std::map<int64_t, SentPacket> history_;
};

}  // namespace gso::transport

#endif  // GSO_TRANSPORT_PACKET_HISTORY_H_
