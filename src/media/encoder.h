// Simulated simulcast video encoder.
//
// GSO never inspects pixels: it orchestrates per-layer resolutions and
// bitrates. The simulated encoder therefore produces rate-accurate encoded
// frames — each enabled layer emits one frame per tick whose size tracks
// the layer's target bitrate (keyframes larger, deltas jittered like a real
// rate controller) — plus an encode-cost figure for the CPU model.
#ifndef GSO_MEDIA_ENCODER_H_
#define GSO_MEDIA_ENCODER_H_

#include <optional>
#include <vector>

#include "common/resolution.h"
#include "common/rng.h"
#include "common/units.h"

namespace gso::media {

struct EncodedFrame {
  int layer_index = 0;
  Resolution resolution;
  uint32_t frame_id = 0;
  DataSize size;
  bool is_keyframe = false;
  Timestamp capture_time;
};

struct EncoderLayerConfig {
  Resolution resolution;
  DataRate max_bitrate;  // codec-capability ceiling for this resolution
};

struct EncoderConfig {
  std::vector<EncoderLayerConfig> layers;  // largest resolution first
  double framerate_fps = 25.0;
  // Conferencing encoders run long GOPs and rely on PLI for on-demand
  // keyframes; periodic keys exist only as a safety net (10 s at 25 fps).
  int keyframe_interval_frames = 250;
};

class SimulatedEncoder {
 public:
  SimulatedEncoder(EncoderConfig config, Rng rng);

  // Sets the target bitrate of one layer; Zero disables the layer (the
  // paper's TMMBR-with-zero-mantissa semantics). Values above the layer's
  // max_bitrate are clamped.
  void SetLayerTargetBitrate(int layer_index, DataRate target);
  // Requests the next frame of `layer_index` to be a keyframe (issued when
  // a new subscriber switches onto the layer).
  void RequestKeyframe(int layer_index);

  // Produces one frame per *enabled* layer for the tick at `now`.
  std::vector<EncodedFrame> EncodeTick(Timestamp now);

  TimeDelta FrameInterval() const {
    return TimeDelta::SecondsF(1.0 / config_.framerate_fps);
  }

  DataRate layer_target(int layer_index) const {
    return layers_[static_cast<size_t>(layer_index)].target;
  }
  bool layer_enabled(int layer_index) const {
    return !layers_[static_cast<size_t>(layer_index)].target.IsZero();
  }
  int layer_count() const { return static_cast<int>(layers_.size()); }
  const EncoderConfig& config() const { return config_; }

  // Total published rate across enabled layers.
  DataRate TotalTargetRate() const;

  // Encode cost in abstract CPU units accumulated since construction.
  // Cost per frame scales with pixel count (dominant) plus bits produced.
  double total_encode_cost() const { return total_cost_; }

 private:
  struct LayerState {
    EncoderLayerConfig config;
    DataRate target;        // zero = disabled
    double rate_debt_bits = 0.0;  // keyframe overshoot amortization
    int frames_since_keyframe = 0;
    bool keyframe_requested = true;  // first frame is always a key
    uint32_t next_frame_id = 1;      // contiguous per layer for decodability
  };

  EncoderConfig config_;
  Rng rng_;
  std::vector<LayerState> layers_;
  double total_cost_ = 0.0;
};

}  // namespace gso::media

#endif  // GSO_MEDIA_ENCODER_H_
