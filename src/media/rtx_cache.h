// Retransmission cache: recently sent/forwarded RTP packets kept per SSRC
// so NACKed sequences can be resent (publisher side and SFU side).
#ifndef GSO_MEDIA_RTX_CACHE_H_
#define GSO_MEDIA_RTX_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/sequence.h"
#include "net/rtp_packet.h"

namespace gso::media {

// Keeps the `max_packets_per_stream` largest sequence numbers received per
// stream, the newest put of each. Sequences are keyed by their unwrapped
// value: with raw uint16_t keys, right after a 16-bit wrap the new
// sequences (0, 1, ...) would sort *before* the pre-wrap ones (65535, ...),
// so size-bound eviction would throw away the newest packets — exactly the
// ones NACKs are about to ask for — while hoarding a full window of stale
// ones.
//
// Each stream is a sorted ring of (unwrapped seq, packet) entries, the
// flat equivalent of a std::map bounded by erasing begin(): the newest key
// appends, an equal key overwrites, anything else is placed by binary
// search, shifting the (short) tail; past the bound the front — the
// smallest key — is dropped. The ring has max + 1 slots, so a put always
// fits before the front is dropped, and grows by doubling from 16 while it
// has not wrapped yet: a stream pays for a full window only once it has
// cached that many packets.
class RtxCache {
 public:
  explicit RtxCache(size_t max_packets_per_stream = 512)
      : max_per_stream_(max_packets_per_stream) {}

  void Put(const net::RtpPacket& packet) {
    Stream& stream = streams_[packet.ssrc];
    const int64_t seq = stream.unwrapper.Unwrap(packet.sequence_number);
    size_t index = stream.count;
    if (stream.count > 0 && seq <= stream.At(stream.count - 1).seq) {
      index = stream.LowerBound(seq);
      if (stream.At(index).seq == seq) {
        stream.At(index).packet = packet;
        return;
      }
      // Below every kept key of a full stream: the bounded map inserts it
      // and erases it again at once.
      if (index == 0 && stream.count >= max_per_stream_) return;
    }
    if (stream.count == stream.slots.size()) stream.Grow(max_per_stream_ + 1);
    for (size_t i = stream.count; i > index; --i) {
      stream.At(i) = stream.At(i - 1);
    }
    stream.At(index) = Entry{seq, packet};
    ++stream.count;
    if (stream.count > max_per_stream_) stream.PopFront();
  }

  std::optional<net::RtpPacket> Get(Ssrc ssrc, uint16_t sequence) const {
    const auto s = streams_.find(ssrc);
    if (s == streams_.end()) return std::nullopt;
    const auto last = s->second.unwrapper.last();
    if (!last) return std::nullopt;
    // Project the 16-bit NACK sequence into the unwrapped space relative
    // to the last packet put (NACK windows are far narrower than a half
    // wrap, so the nearest interpretation is the right one).
    const int64_t seq =
        *last + static_cast<int16_t>(
                    sequence - static_cast<uint16_t>(*last & 0xFFFF));
    const Stream& stream = s->second;
    const size_t index = stream.LowerBound(seq);
    if (index == stream.count || stream.At(index).seq != seq) {
      return std::nullopt;
    }
    return stream.At(index).packet;
  }

  // Forgets all cached packets of one stream (publisher teardown).
  void Drop(Ssrc ssrc) { streams_.erase(ssrc); }

  // Forgets everything (process crash: the revived node must not answer
  // NACKs with pre-crash payloads).
  void Clear() { streams_.clear(); }

 private:
  static constexpr size_t kInitialSlots = 16;

  struct Entry {
    int64_t seq = 0;  // unwrapped
    net::RtpPacket packet;
  };

  struct Stream {
    SequenceUnwrapper unwrapper;
    std::vector<Entry> slots;  // ring; logical entry i is at head + i
    size_t head = 0;
    size_t count = 0;

    Entry& At(size_t i) { return slots[Physical(i)]; }
    const Entry& At(size_t i) const { return slots[Physical(i)]; }
    size_t Physical(size_t i) const {
      const size_t p = head + i;
      return p < slots.size() ? p : p - slots.size();
    }

    // First logical index whose key is >= seq (count if none).
    size_t LowerBound(int64_t seq) const {
      size_t lo = 0;
      size_t hi = count;
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (At(mid).seq < seq) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      return lo;
    }

    // Only called while the ring is full and below `limit` slots, which
    // is before it ever dropped its front: head is still 0, so the
    // entries stay where they are.
    void Grow(size_t limit) {
      slots.resize(std::min(std::max(2 * slots.size(), kInitialSlots), limit));
    }

    void PopFront() {
      head = Physical(1);
      --count;
    }
  };

  size_t max_per_stream_;
  std::unordered_map<Ssrc, Stream> streams_;
};

}  // namespace gso::media

#endif  // GSO_MEDIA_RTX_CACHE_H_
