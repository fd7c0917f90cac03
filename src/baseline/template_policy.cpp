#include "baseline/template_policy.h"

namespace gso::baseline {
namespace {

std::vector<LayerDecision> ChimeLike(DataRate uplink, int participants) {
  // Modeled on the Amazon Chime SDK template cited by the paper: coarse
  // thresholds, participant-count buckets, 2-3 fixed levels. Uplink rules
  // only consider the publisher's own estimate.
  std::vector<LayerDecision> layers = {
      {kResolution720p, DataRate::Zero()},
      {kResolution360p, DataRate::Zero()},
      {kResolution180p, DataRate::Zero()},
  };
  if (participants <= 2) {
    // One-on-one: single stream as large as the template allows.
    if (uplink > DataRate::MegabitsPerSec(2)) {
      layers[0].bitrate = DataRate::MegabitsPerSecF(1.5);
    } else if (uplink > DataRate::KilobitsPerSec(900)) {
      layers[1].bitrate = DataRate::KilobitsPerSec(600);
    } else {
      layers[2].bitrate = DataRate::KilobitsPerSec(300);
    }
    return layers;
  }
  if (participants <= 6) {
    // Small meeting: high + low when uplink allows.
    if (uplink > DataRate::MegabitsPerSecF(2.4)) {
      layers[0].bitrate = DataRate::MegabitsPerSecF(1.5);
      layers[2].bitrate = DataRate::KilobitsPerSec(300);
    } else if (uplink > DataRate::KilobitsPerSec(900)) {
      layers[1].bitrate = DataRate::KilobitsPerSec(600);
      layers[2].bitrate = DataRate::KilobitsPerSec(300);
    } else if (uplink > DataRate::KilobitsPerSec(300)) {
      layers[2].bitrate = DataRate::KilobitsPerSec(300);
    } else {
      layers[2].bitrate = DataRate::KilobitsPerSec(100);
    }
    return layers;
  }
  // Large meeting: medium + low; 720p never published (template cap).
  if (uplink > DataRate::MegabitsPerSecF(1.2)) {
    layers[1].bitrate = DataRate::KilobitsPerSec(600);
    layers[2].bitrate = DataRate::KilobitsPerSec(300);
  } else if (uplink > DataRate::KilobitsPerSec(450)) {
    layers[2].bitrate = DataRate::KilobitsPerSec(300);
  } else {
    layers[2].bitrate = DataRate::KilobitsPerSec(100);
  }
  return layers;
}

std::vector<LayerDecision> CompetitorA(DataRate uplink, int /*participants*/) {
  // Conservative two-level ladder with a large gap between levels (the
  // paper notes target ratios between adjacent streams as large as 5x).
  std::vector<LayerDecision> layers = {
      {kResolution720p, DataRate::Zero()},
      {kResolution180p, DataRate::Zero()},
  };
  if (uplink > DataRate::MegabitsPerSecF(1.8)) {
    layers[0].bitrate = DataRate::MegabitsPerSecF(1.2);
    layers[1].bitrate = DataRate::KilobitsPerSec(240);
  } else if (uplink > DataRate::KilobitsPerSec(400)) {
    layers[1].bitrate = DataRate::KilobitsPerSec(240);
  } else {
    layers[1].bitrate = DataRate::KilobitsPerSec(120);
  }
  return layers;
}

std::vector<LayerDecision> CompetitorB(DataRate uplink, int participants) {
  // Aggressive: keeps all three layers on whenever the estimate nominally
  // fits, leaving no headroom — prone to uplink congestion on slow links.
  std::vector<LayerDecision> layers = {
      {kResolution720p, DataRate::Zero()},
      {kResolution360p, DataRate::Zero()},
      {kResolution180p, DataRate::KilobitsPerSec(300)},
  };
  if (uplink > DataRate::MegabitsPerSecF(2.2)) {
    layers[0].bitrate = DataRate::MegabitsPerSecF(1.4);
  }
  if (uplink > DataRate::KilobitsPerSec(950) && participants <= 16) {
    layers[1].bitrate = DataRate::KilobitsPerSec(650);
  }
  return layers;
}

std::vector<LayerDecision> CoarseThreeLevel(DataRate uplink,
                                            int /*participants*/) {
  // The classic coarse ladder of legacy Simulcast (paper Fig. 7b): fixed
  // 1.2M / 600k / 300k levels gated only on the publisher's own uplink.
  std::vector<LayerDecision> layers = {
      {kResolution720p, DataRate::Zero()},
      {kResolution360p, DataRate::Zero()},
      {kResolution180p, DataRate::Zero()},
  };
  if (uplink > DataRate::KilobitsPerSec(400)) {
    layers[2].bitrate = DataRate::KilobitsPerSec(300);
  } else {
    layers[2].bitrate = DataRate::KilobitsPerSec(100);
    return layers;
  }
  if (uplink > DataRate::MegabitsPerSecF(1.1)) {
    layers[1].bitrate = DataRate::KilobitsPerSec(600);
  }
  if (uplink > DataRate::MegabitsPerSecF(2.4)) {
    layers[0].bitrate = DataRate::MegabitsPerSecF(1.2);
  }
  return layers;
}

}  // namespace

std::vector<LayerDecision> TemplatePolicy::Decide(DataRate uplink_estimate,
                                                  int participant_count) const {
  switch (kind_) {
    case TemplateKind::kChimeLike:
      return ChimeLike(uplink_estimate, participant_count);
    case TemplateKind::kCoarseThreeLevel:
      return CoarseThreeLevel(uplink_estimate, participant_count);
    case TemplateKind::kCompetitorA:
      return CompetitorA(uplink_estimate, participant_count);
    case TemplateKind::kCompetitorB:
      return CompetitorB(uplink_estimate, participant_count);
  }
  return {};
}

}  // namespace gso::baseline
