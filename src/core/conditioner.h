// Bandwidth-report conditioning before orchestration (paper §7).
//
// "Avoiding video quality oscillations": after a downgrade, an upgrade is
// only admitted once the measured bandwidth exceeds the last granted value
// by a confidence margin, filtering measurement noise.
// "Protecting audios": a protection headroom is subtracted from every
// measurement so video never starves the audio streams sharing the link.
#ifndef GSO_CORE_CONDITIONER_H_
#define GSO_CORE_CONDITIONER_H_

#include <algorithm>
#include <map>

#include "common/ids.h"
#include "common/units.h"

namespace gso::core {

struct ConditionerConfig {
  // Upgrade admitted only if estimate > last_granted * (1 + margin).
  double upgrade_margin = 0.15;
  // Downgrades pass through immediately (congestion must be honoured).
  bool enable_hysteresis = true;
  // Per audio stream headroom subtracted from the budget.
  DataRate audio_protection_per_stream = DataRate::KilobitsPerSec(40);
};

class BandwidthConditioner {
 public:
  explicit BandwidthConditioner(ConditionerConfig config = {})
      : config_(config) {}

  // Conditions one direction of one client's estimate. `key` must be
  // stable per (client, direction). `audio_streams` is the number of audio
  // flows sharing the direction.
  DataRate Condition(uint64_t key, DataRate estimate, int audio_streams) {
    DataRate budget =
        estimate - config_.audio_protection_per_stream * audio_streams;
    budget = std::max(budget, kFloor);

    if (!config_.enable_hysteresis) return budget;

    auto& state = state_[key];
    if (!state.initialized) {
      state.initialized = true;
      state.granted = budget;
      return budget;
    }
    if (budget < state.granted) {
      // Downgrade: honour immediately and arm the hysteresis latch.
      state.granted = budget;
      state.downgraded = true;
      return budget;
    }
    if (state.downgraded &&
        budget < state.granted * (1.0 + config_.upgrade_margin)) {
      // Not confident enough yet: hold the previously granted value.
      return state.granted;
    }
    state.granted = budget;
    state.downgraded = false;
    return budget;
  }

  void Reset(uint64_t key) { state_.erase(key); }

 private:
  // Never report less than this. Chosen above the smallest ladder option
  // so even a badly impaired client keeps a thumbnail stream (matching
  // the paper's behaviour of degrading, never blanking, video).
  static constexpr DataRate kFloor = DataRate::KilobitsPerSec(120);

  struct State {
    bool initialized = false;
    bool downgraded = false;
    DataRate granted;
  };

  ConditionerConfig config_;
  std::map<uint64_t, State> state_;
};

}  // namespace gso::core

#endif  // GSO_CORE_CONDITIONER_H_
