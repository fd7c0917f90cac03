// Sent-packet bookkeeping for transport-wide feedback.
//
// The sender records (transport sequence -> send time, size); when a
// TransportFeedback arrives, ProcessFeedback() joins receive times against
// this history to produce PacketResult samples for the estimators.
#ifndef GSO_TRANSPORT_PACKET_HISTORY_H_
#define GSO_TRANSPORT_PACKET_HISTORY_H_

#include <algorithm>
#include <array>
#include <bitset>
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

// Keyed on unwrapped sequence: a lookup consumes its entry, above
// kMaxTrackedPackets the smallest sequence is evicted, and entries older
// than kFeedbackHorizon age out from the smallest. So that steady sending
// allocates nothing, a power-of-two ring holds the kRingSlots sequences
// ending at the newest one sent, with one live bit per slot. Entries
// still unanswered when the ring moves past them (their feedback was lost
// or is late) move to a small ordered spill, whose keys therefore all lie
// below the ring's window.
class PacketHistory {
 public:
  // Remembers a sent packet under its (wrapping) transport sequence number.
  void OnPacketSent(uint16_t transport_sequence, Timestamp send_time,
                    DataSize size,
                    std::optional<int> probe_cluster = std::nullopt) {
    const int64_t seq = send_unwrapper_.Unwrap(transport_sequence);
    Put(seq, SentPacket{send_time, size, probe_cluster});
    // Bound memory two ways. The size cap handles bursts; the age cap
    // handles *feedback loss*: when the feedback packet itself is dropped,
    // its packets are never looked up, and without an age-out each loss
    // episode would strand another batch of entries until the size cap
    // engaged (a leak-shaped plateau the soak harness flagged).
    while (in_flight_count() > kMaxTrackedPackets) EraseOldest();
    const Timestamp horizon = send_time - kFeedbackHorizon;
    for (const SentPacket* oldest = Oldest();
         oldest != nullptr && oldest->send_time < horizon;
         oldest = Oldest()) {
      EraseOldest();
    }
  }

  // Joins one feedback entry against the history. Returns nullopt for
  // packets we no longer (or never) track.
  std::optional<PacketResult> Lookup(uint16_t transport_sequence,
                                     bool received, Timestamp receive_time) {
    const int64_t seq = feedback_unwrapper_.Unwrap(transport_sequence);
    const std::optional<SentPacket> sent = Take(seq);
    if (!sent) return std::nullopt;
    PacketResult result;
    result.sequence = seq;
    result.send_time = sent->send_time;
    result.size = sent->size;
    result.received = received;
    result.receive_time = receive_time;
    result.probe_cluster = sent->probe_cluster;
    return result;
  }

  size_t in_flight_count() const { return live_.count() + spill_.size(); }

 private:
  static constexpr size_t kMaxTrackedPackets = 10000;
  // Far beyond any feedback RTT (feedback ticks every ~100 ms): an entry
  // this old can only belong to a lost feedback packet.
  static constexpr TimeDelta kFeedbackHorizon = TimeDelta::Seconds(5);
  // Covers the packets one feedback interval leaves unanswered on the
  // simulated links. Every sender pays for its ring (128 slots cost ~3 %
  // of fleet_storm's peak RSS), while 64 slots spill often enough on
  // meeting_mesh's downlinks to add ~0.4 allocations per forwarded
  // packet.
  static constexpr int64_t kRingSlots = 128;
  static constexpr int64_t kNone = INT64_MIN;

  // The ring slot of `seq`. Every sequence in the ring's window has its
  // own slot, so a set live bit names the one it holds.
  static size_t Index(int64_t seq) {
    return static_cast<size_t>(seq & (kRingSlots - 1));
  }

  void Put(int64_t seq, const SentPacket& packet) {
    if (seq > newest_) Advance(seq);
    if (seq <= newest_ - kRingSlots) {
      spill_[seq] = packet;
      return;
    }
    live_.set(Index(seq));
    ring_[Index(seq)] = packet;
    ring_low_ = std::min(ring_low_, seq);
  }

  // Moves the ring's window up to end at `newest`; live entries it leaves
  // behind move to the spill, above every key already there.
  void Advance(int64_t newest) {
    const int64_t floor = newest - kRingSlots + 1;
    for (int64_t s = ring_low_; s < floor && s <= newest_; ++s) {
      if (!live_.test(Index(s))) continue;
      spill_.emplace_hint(spill_.end(), s, ring_[Index(s)]);
      live_.reset(Index(s));
    }
    newest_ = newest;
    ring_low_ = std::max(ring_low_, floor);
  }

  std::optional<SentPacket> Take(int64_t seq) {
    if (seq > newest_) return std::nullopt;
    if (seq > newest_ - kRingSlots) {
      if (!live_.test(Index(seq))) return std::nullopt;
      live_.reset(Index(seq));
      return ring_[Index(seq)];
    }
    const auto it = spill_.find(seq);
    if (it == spill_.end()) return std::nullopt;
    const SentPacket packet = it->second;
    spill_.erase(it);
    return packet;
  }

  // The entry with the smallest sequence, or null when there is none.
  const SentPacket* Oldest() {
    if (!spill_.empty()) return &spill_.begin()->second;
    if (live_.none()) return nullptr;
    while (!live_.test(Index(ring_low_))) ++ring_low_;
    return &ring_[Index(ring_low_)];
  }

  void EraseOldest() {
    if (!spill_.empty()) {
      spill_.erase(spill_.begin());
    } else if (Oldest() != nullptr) {
      live_.reset(Index(ring_low_));
    }
  }

  SequenceUnwrapper send_unwrapper_;
  SequenceUnwrapper feedback_unwrapper_;
  std::array<SentPacket, kRingSlots> ring_;
  std::bitset<kRingSlots> live_;
  // Highest sequence ever sent: the ring covers (newest_ - kRingSlots,
  // newest_]. No live slot holds a sequence below ring_low_.
  int64_t newest_ = kNone;
  int64_t ring_low_ = INT64_MAX;
  std::map<int64_t, SentPacket> spill_;
};

}  // namespace gso::transport

#endif  // GSO_TRANSPORT_PACKET_HISTORY_H_
