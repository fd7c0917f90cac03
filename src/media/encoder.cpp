#include "media/encoder.h"

#include <algorithm>

#include "common/logging.h"

namespace gso::media {
namespace {

// Keyframes cost ~3x an average delta frame; the rate controller spreads
// the debt over the following deltas.
constexpr double kKeyframeSizeFactor = 3.0;

// Abstract CPU cost of encoding one frame: dominated by per-pixel motion
// search plus entropy-coding work proportional to output bits. Constants
// are arbitrary units; only ratios matter for the Fig. 9 reproduction.
double EncodeCost(const Resolution& res, double frame_bits) {
  return static_cast<double>(res.PixelCount()) * 1e-6 + frame_bits * 2e-7;
}

}  // namespace

SimulatedEncoder::SimulatedEncoder(EncoderConfig config, Rng rng)
    : config_(std::move(config)), rng_(rng) {
  GSO_CHECK(!config_.layers.empty());
  GSO_CHECK(config_.framerate_fps > 0);
  layers_.reserve(config_.layers.size());
  for (const auto& layer : config_.layers) {
    LayerState state;
    state.config = layer;
    state.target = DataRate::Zero();  // disabled until configured
    layers_.push_back(state);
  }
}

void SimulatedEncoder::SetLayerTargetBitrate(int layer_index,
                                             DataRate target) {
  GSO_CHECK(layer_index >= 0 &&
            layer_index < static_cast<int>(layers_.size()));
  auto& layer = layers_[static_cast<size_t>(layer_index)];
  const bool was_disabled = layer.target.IsZero();
  layer.target = std::min(target, layer.config.max_bitrate);
  if (was_disabled && !layer.target.IsZero()) {
    layer.keyframe_requested = true;  // restart the layer with a keyframe
    layer.rate_debt_bits = 0;
  }
}

void SimulatedEncoder::RequestKeyframe(int layer_index) {
  GSO_CHECK(layer_index >= 0 &&
            layer_index < static_cast<int>(layers_.size()));
  layers_[static_cast<size_t>(layer_index)].keyframe_requested = true;
}

DataRate SimulatedEncoder::TotalTargetRate() const {
  DataRate total;
  for (const auto& layer : layers_) total += layer.target;
  return total;
}

std::vector<EncodedFrame> SimulatedEncoder::EncodeTick(Timestamp now) {
  std::vector<EncodedFrame> frames;
  for (size_t i = 0; i < layers_.size(); ++i) {
    auto& layer = layers_[i];
    if (layer.target.IsZero()) continue;

    const bool keyframe =
        layer.keyframe_requested ||
        layer.frames_since_keyframe + 1 >= config_.keyframe_interval_frames;
    layer.keyframe_requested = false;
    layer.frames_since_keyframe = keyframe ? 0 : layer.frames_since_keyframe + 1;

    const double budget_bits =
        static_cast<double>(layer.target.bps()) / config_.framerate_fps;
    double frame_bits;
    if (keyframe) {
      frame_bits = budget_bits * kKeyframeSizeFactor;
      layer.rate_debt_bits += frame_bits - budget_bits;
    } else {
      // Pay down keyframe debt over ~1 s of frames; jitter models content-
      // dependent frame size variation of a real encoder (±15%).
      const double repayment = std::min(
          layer.rate_debt_bits, budget_bits * 0.25);
      layer.rate_debt_bits -= repayment;
      frame_bits = (budget_bits - repayment) * rng_.Uniform(0.85, 1.15);
    }
    frame_bits = std::max(frame_bits, 64.0 * 8);  // floor: header-sized frame

    EncodedFrame frame;
    frame.layer_index = static_cast<int>(i);
    frame.resolution = layer.config.resolution;
    frame.frame_id = layer.next_frame_id++;
    frame.size = DataSize::Bytes(static_cast<int64_t>(frame_bits / 8.0));
    frame.is_keyframe = keyframe;
    frame.capture_time = now;
    frames.push_back(frame);

    total_cost_ += EncodeCost(layer.config.resolution, frame_bits);
  }
  return frames;
}

}  // namespace gso::media
