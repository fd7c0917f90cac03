// Wrapping sequence-number arithmetic (RFC 3550 §A.1 style).
//
// RTP sequence numbers and transport-wide feedback counters are 16-bit and
// wrap; SequenceUnwrapper maps them onto a monotone 64-bit axis.
#ifndef GSO_COMMON_SEQUENCE_H_
#define GSO_COMMON_SEQUENCE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.h"

namespace gso {

// Unwraps a wrapping uint16 counter into an int64 that never decreases by
// more than half the wrap range. The first value anchors the axis.
class SequenceUnwrapper {
 public:
  int64_t Unwrap(uint16_t value) {
    if (!last_value_) {
      last_unwrapped_ = value;
    } else {
      const int16_t delta = static_cast<int16_t>(value - *last_value_);
      last_unwrapped_ += delta;
    }
    last_value_ = value;
    return last_unwrapped_;
  }

  std::optional<int64_t> last() const {
    return last_value_ ? std::optional<int64_t>(last_unwrapped_) : std::nullopt;
  }

 private:
  std::optional<uint16_t> last_value_;
  int64_t last_unwrapped_ = 0;
};

// Which sequences of one received stream to NACK, and when. Only gaps among
// the kNackWindow sequences below the highest received are repaired, so one
// fixed ring holds each slot's received flag and retry state, each tagged
// with the unwrapped sequence it describes; a differing tag means empty.
class ReceiveWindow {
 public:
  static constexpr int64_t kNackWindow = 150;
  static constexpr TimeDelta kRetryInterval = TimeDelta::Millis(50);

  // NACKs each sequence at most `max_attempts` times, `max_batch` per call.
  ReceiveWindow(int max_attempts, size_t max_batch)
      : max_attempts_(max_attempts), max_batch_(max_batch) {}

  // Records a received packet; returns its unwrapped sequence. A packet
  // older than the ring only lowers `lowest`: it can never be NACKed.
  int64_t Insert(uint16_t sequence_number) {
    const int64_t seq = unwrapper_.Unwrap(sequence_number);
    lowest_ = std::min(lowest_, seq);
    highest_ = std::max(highest_, seq);
    Entry& entry = At(seq);
    if (seq > highest_ - kSlots) entry.received = seq;
    if (entry.nacked == seq) entry.nacked = kEmpty;
    return seq;
  }

  // Gaps in [max(lowest, floor, highest - kNackWindow), highest) due for a
  // NACK at `now`, in sequence order, as wire sequence numbers.
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

  // Forgets every retry: the next Collect treats each gap as new.
  void ClearRetries() { for (Entry& e : ring_) e.nacked = kEmpty; }

  // Retry entries for sequences still missing inside the NACK window.
  size_t retry_entries() const {
    return std::count_if(ring_.begin(), ring_.end(), [&](const Entry& e) {
      return e.nacked >= highest_ - kNackWindow && e.nacked < highest_;
    });
  }

  int64_t highest() const { return highest_; }  // -1 before any packet

 private:
  static constexpr int64_t kSlots = 256;
  static constexpr int64_t kEmpty = INT64_MIN;
  struct Entry {
    int64_t received = kEmpty;  // tag of the sequence that arrived
    int64_t nacked = kEmpty;    // tag of the sequence the retry state is for
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

}  // namespace gso

#endif  // GSO_COMMON_SEQUENCE_H_
