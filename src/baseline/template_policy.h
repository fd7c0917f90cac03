// Template-based Non-GSO simulcast stream policies.
//
// State-of-the-art Simulcast (paper §1, §2.3) drives publishers with
// empirically tuned template rules keyed on the publisher's *local* view:
// its own uplink estimate and the participant count. There is no
// coordination with receivers; unsubscribed layers keep burning uplink
// (Fig. 3a) and bitrates only move between a few coarse levels (Fig. 7b).
//
// Three templates are provided:
//  - kChimeLike     — the paper's reference behaviour (e.g. Amazon Chime's
//    "360p at 600 kbps if uplink > 300 kbps, for < 6 participants").
//  - kCompetitorA   — a conservative 2-level ladder whose levels sit ~5x
//    apart (stands in for the paper's "Competitor 1" in Fig. 8).
//  - kCompetitorB   — an aggressive 3-level ladder driven by optimistic
//    receiver-side estimation ("Competitor 2").
#ifndef GSO_BASELINE_TEMPLATE_POLICY_H_
#define GSO_BASELINE_TEMPLATE_POLICY_H_

#include <vector>

#include "common/resolution.h"
#include "common/units.h"

namespace gso::baseline {

enum class TemplateKind {
  kChimeLike,          // participant-aware Chime-style template
  kCoarseThreeLevel,   // classic 3-level simulcast (1.2M / 600k / 300k)
  kCompetitorA,
  kCompetitorB,
};

// One publisher-side layer decision: fixed target bitrate or disabled.
struct LayerDecision {
  Resolution resolution;
  DataRate bitrate;  // zero = layer disabled
};

// Publisher-side template: maps (uplink estimate, participant count) to
// per-layer fixed bitrates. Stateless: every template is re-evaluated on
// the client's 1 s policy tick, and its sluggishness lies in the coarse
// levels alone.
class TemplatePolicy {
 public:
  explicit TemplatePolicy(TemplateKind kind) : kind_(kind) {}

  std::vector<LayerDecision> Decide(DataRate uplink_estimate,
                                    int participant_count) const;

 private:
  TemplateKind kind_;
};

// Receiver-side layer selection at the SFU (the "fragmented view" switch):
// picks the largest advertised layer whose bitrate fits within 90 % of the
// downlink estimate. Stateless: it switches down as readily as up.
class SfuLayerSelector {
 public:
  // `layer_rates` are the currently active layer bitrates, largest first.
  // Returns the selected index, or -1 when nothing fits (stall).
  int Select(const std::vector<DataRate>& layer_rates,
             DataRate downlink_estimate) const {
    for (size_t i = 0; i < layer_rates.size(); ++i) {
      if (layer_rates[i].IsZero()) continue;
      if (layer_rates[i] <= downlink_estimate * kMargin) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

 private:
  static constexpr double kMargin = 0.9;
};

}  // namespace gso::baseline

#endif  // GSO_BASELINE_TEMPLATE_POLICY_H_
