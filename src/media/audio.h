// Audio source and receive accounting.
//
// Audio is not orchestrated by GSO (paper §5: "pure audio communication is
// not handled by GSO-Simulcast") but shares the links with video, which is
// exactly how video congestion causes the paper's voice stalls. The source
// emits fixed-rate Opus-like packets; the receiving client counts them per
// playback interval for its voice-stall rate (Client::VoiceStallRate).
#ifndef GSO_MEDIA_AUDIO_H_
#define GSO_MEDIA_AUDIO_H_

#include <cstdint>

#include "common/ids.h"
#include "common/units.h"

namespace gso::media {

inline constexpr TimeDelta kAudioPacketInterval = TimeDelta::Millis(20);
inline constexpr DataSize kAudioPayloadSize = DataSize::Bytes(80);  // ~32 kbps

struct AudioPacket {
  Ssrc ssrc;
  uint16_t sequence = 0;
  Timestamp capture_time;
};

class AudioSource {
 public:
  explicit AudioSource(Ssrc ssrc) : ssrc_(ssrc) {}

  AudioPacket NextPacket(Timestamp now) {
    AudioPacket p;
    p.ssrc = ssrc_;
    p.sequence = next_sequence_++;
    p.capture_time = now;
    return p;
  }

  Ssrc ssrc() const { return ssrc_; }

 private:
  Ssrc ssrc_;
  uint16_t next_sequence_ = 0;
};

}  // namespace gso::media

#endif  // GSO_MEDIA_AUDIO_H_
