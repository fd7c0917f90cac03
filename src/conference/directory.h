// Conference-wide stream directory.
//
// The conference node is the single writer: it records, for every SSRC,
// who owns it and what it carries (negotiated via SDP + simulcastInfo).
// Clients and accessing nodes read it to interpret received streams. This
// stands in for the out-of-band signaling channel that distributes stream
// metadata in the production system.
#ifndef GSO_CONFERENCE_DIRECTORY_H_
#define GSO_CONFERENCE_DIRECTORY_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/resolution.h"
#include "common/units.h"
#include "core/types.h"

namespace gso::conference {

struct StreamInfo {
  Ssrc ssrc;
  ClientId owner;
  core::SourceKind source = core::SourceKind::kCamera;
  bool is_audio = false;
  int layer_index = 0;      // index in the owner's ladder (video only)
  Resolution resolution;    // video only
  DataRate max_bitrate;     // codec ceiling for the layer (video only)
};

class StreamDirectory {
 public:
  void Register(const StreamInfo& info) {
    streams_[info.ssrc] = info;
    ++generation_;
  }
  void Unregister(Ssrc ssrc) {
    streams_.erase(ssrc);
    ++generation_;
  }

  // Bumped by every Register/Unregister, so readers that derive state from
  // the directory can tell when to derive it again.
  uint64_t generation() const { return generation_; }

  // Calls `fn(info)` for every registered stream, in no particular order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [_, info] : streams_) fn(info);
  }

  std::optional<StreamInfo> Lookup(Ssrc ssrc) const {
    const auto it = streams_.find(ssrc);
    if (it == streams_.end()) return std::nullopt;
    return it->second;
  }

  // All video layer SSRCs of one source, ordered by layer index.
  std::vector<StreamInfo> LayersOf(ClientId owner,
                                   core::SourceKind kind) const {
    std::vector<StreamInfo> out;
    for (const auto& [_, info] : streams_) {
      if (info.owner == owner && !info.is_audio && info.source == kind) {
        out.push_back(info);
      }
    }
    std::sort(out.begin(), out.end(),
              [](const StreamInfo& a, const StreamInfo& b) {
                return a.layer_index < b.layer_index;
              });
    return out;
  }

 private:
  std::unordered_map<Ssrc, StreamInfo> streams_;
  uint64_t generation_ = 0;
};

}  // namespace gso::conference

#endif  // GSO_CONFERENCE_DIRECTORY_H_
