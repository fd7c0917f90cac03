// FNV-1a over raw bytes: the fold behind the shards' outcome digests and
// the fleet digest that combines them.
#ifndef GSO_COMMON_FNV_H_
#define GSO_COMMON_FNV_H_

#include <cstddef>
#include <cstdint>

namespace gso {

// Start value of every digest. This is not the standard 64-bit FNV-1a
// offset basis (14695981039346656037) but that number without its last
// digit. The fleet digests in BENCH_fleet.json and the benchmark goldens
// were all recorded from this value, so it stays.
inline constexpr uint64_t kDigestSeed = 1469598103934665603ull;

inline uint64_t HashBytes(uint64_t h, const void* data, size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;  // the 64-bit FNV prime
  }
  return h;
}

}  // namespace gso

#endif  // GSO_COMMON_FNV_H_
