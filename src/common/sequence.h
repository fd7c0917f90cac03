// Wrapping sequence-number arithmetic (RFC 3550 §A.1 style).
//
// RTP sequence numbers and transport-wide feedback counters are 16-bit and
// wrap; SequenceUnwrapper maps them onto a monotone 64-bit axis.
#ifndef GSO_COMMON_SEQUENCE_H_
#define GSO_COMMON_SEQUENCE_H_

#include <algorithm>
#include <array>
#include <bit>
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
// the kNackWindow sequences below the highest received are repaired.
//
// The state is a 256-bit received map plus a retry record per NACKed gap
// still inside the NACK window: 104 bytes, plus heap for the records once
// a gap has been NACKed. Bit `s & 255` speaks for sequence s only while
// s > highest - 256: when the highest advances, the positions that
// re-enter at the top are cleared first. Retry records {seq, last_sent,
// attempts} are kept sorted by seq; when the highest advances, those that
// fell below the window are dropped.
//
// It answers exactly as a 256-slot ring of entries tagged with the
// sequence they describe (a differing tag meaning empty) would:
//  - A slot's received tag for s is overwritten only by a sequence
//    >= s + 256. That sequence makes the highest >= s + 256, so s has left
//    every range that is ever read again; the map's bit for s goes then.
//  - A slot's retry tag for s is overwritten only by a NACK for s +- 256k.
//    A NACK needs its sequence in [highest - kNackWindow, highest), and the
//    highest never decreases, so s is then permanently below the NACK
//    window, and its record is already gone.
// So the records are exactly the ring's retry tags inside the window.
class ReceiveWindow {
 public:
  static constexpr int64_t kNackWindow = 150;
  static constexpr TimeDelta kRetryInterval = TimeDelta::Millis(50);

  // NACKs each sequence at most `max_attempts` times, `max_batch` per call.
  ReceiveWindow(int max_attempts, size_t max_batch)
      : max_attempts_(max_attempts), max_batch_(max_batch) {}

  // Records a received packet; returns its unwrapped sequence. A packet
  // older than the map only lowers `lowest`: it can never be NACKed.
  int64_t Insert(uint16_t sequence_number) {
    const int64_t seq = unwrapper_.Unwrap(sequence_number);
    lowest_ = std::min(lowest_, seq);
    if (seq > highest_) {
      if (seq - highest_ >= kSlots) {
        received_.fill(0);
      } else {
        for (int64_t s = highest_ + 1; s <= seq; ++s) Word(s) &= ~Bit(s);
      }
      highest_ = seq;
      const int64_t window_begin = highest_ - kNackWindow;
      if (!retries_.empty() && retries_.front().seq < window_begin) {
        retries_.erase(retries_.begin(), LowerBound(window_begin));
      }
    }
    if (seq > highest_ - kSlots) Word(seq) |= Bit(seq);
    if (!retries_.empty()) {
      const auto it = LowerBound(seq);
      if (it != retries_.end() && it->seq == seq) retries_.erase(it);
    }
    return seq;
  }

  // Gaps in [max(lowest, floor, highest - kNackWindow), highest) due for a
  // NACK at `now`, in sequence order, as wire sequence numbers.
  std::vector<uint16_t> Collect(Timestamp now, int64_t floor) {
    std::vector<uint16_t> nacks;
    auto retry = retries_.begin();
    const int64_t begin = std::max({lowest_, floor, highest_ - kNackWindow});
    for (int64_t s = NextGap(begin); s < highest_ && nacks.size() < max_batch_;
         s = NextGap(s + 1)) {
      while (retry != retries_.end() && retry->seq < s) ++retry;
      if (retry != retries_.end() && retry->seq == s) {
        if (retry->attempts >= max_attempts_ ||
            now - retry->last_sent < kRetryInterval) {
          continue;
        }
        ++retry->attempts;
        retry->last_sent = now;
      } else {
        retry = retries_.insert(retry, Retry{s, now, 1});
      }
      nacks.push_back(static_cast<uint16_t>(s & 0xFFFF));
    }
    return nacks;
  }

  // Forgets every retry: the next Collect treats each gap as new.
  void ClearRetries() { retries_.clear(); }

  // Retry entries for sequences still missing inside the NACK window.
  size_t retry_entries() const { return retries_.size(); }

  int64_t highest() const { return highest_; }  // -1 before any packet

 private:
  static constexpr int64_t kSlots = 256;
  struct Retry {
    int64_t seq;
    Timestamp last_sent;
    int attempts;
  };

  uint64_t& Word(int64_t s) {
    return received_[static_cast<size_t>((s & (kSlots - 1)) >> 6)];
  }
  static uint64_t Bit(int64_t s) { return uint64_t{1} << (s & 63); }

  // The first sequence >= s whose bit is clear, or highest if none is
  // below it. Only meaningful for s > highest - kSlots.
  int64_t NextGap(int64_t s) {
    while (s < highest_) {
      const uint64_t missing = ~Word(s) >> (s & 63);
      if (missing != 0) {
        return std::min(s + std::countr_zero(missing), highest_);
      }
      s += 64 - (s & 63);
    }
    return highest_;
  }

  std::vector<Retry>::iterator LowerBound(int64_t s) {
    return std::lower_bound(
        retries_.begin(), retries_.end(), s,
        [](const Retry& r, int64_t value) { return r.seq < value; });
  }

  SequenceUnwrapper unwrapper_;
  std::array<uint64_t, kSlots / 64> received_{};
  std::vector<Retry> retries_;  // NACKed gaps, sorted by seq
  int64_t highest_ = -1;
  int64_t lowest_ = INT64_MAX;
  int max_attempts_;
  size_t max_batch_;
};

}  // namespace gso

#endif  // GSO_COMMON_SEQUENCE_H_
