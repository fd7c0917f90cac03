// Model types for the GSO orchestration problem (paper §4.1).
//
// A conference is a set of clients; each client owns one or more media
// *sources* (camera, screen share). Each source advertises a feasible
// stream set S_i — a ladder of (resolution, bitrate, QoE-utility) options
// with multiple fine-grained bitrates per resolution. Subscriptions connect
// a subscriber to a source with a maximum acceptable resolution R_ii' and a
// priority weight. The orchestrator must pick, per source, a set of
// published streams (at most one bitrate per resolution — the codec
// capability constraint) and, per subscription, at most one stream per
// class, subject to every client's uplink and downlink budgets.
#ifndef GSO_CORE_TYPES_H_
#define GSO_CORE_TYPES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/resolution.h"
#include "common/units.h"

namespace gso::core {

enum class SourceKind : uint8_t { kCamera = 0, kScreen = 1 };

inline std::string ToString(SourceKind k) {
  return k == SourceKind::kCamera ? "camera" : "screen";
}

// Identifies one media source of one client.
struct SourceId {
  ClientId client;
  SourceKind kind = SourceKind::kCamera;

  bool operator==(const SourceId& o) const {
    return client == o.client && kind == o.kind;
  }
  bool operator<(const SourceId& o) const {
    if (client != o.client) return client < o.client;
    return kind < o.kind;
  }
  std::string ToString() const {
    return client.ToString() + "/" + core::ToString(kind);
  }
};

// One row of a feasible stream set: a (resolution, bitrate) pair with its
// QoE utility weight (the paper's QoE_i(s)).
struct StreamOption {
  Resolution resolution;
  DataRate bitrate;
  double qoe = 0.0;

  bool operator==(const StreamOption& o) const {
    return resolution == o.resolution && bitrate == o.bitrate && qoe == o.qoe;
  }
};

// The feasible stream set S_i of one source, plus bookkeeping for the
// Reduction step (resolutions removed by previous iterations).
struct SourceCapability {
  SourceId source;
  std::vector<StreamOption> options;  // the full ladder, any order
};

// A subscription edge: `subscriber` wants `source` at resolution <=
// max_resolution. `slot` differentiates multiple subscriptions from the
// same subscriber to the same source (the paper's virtual-publisher trick,
// §4.4: e.g. slot 0 = speaker-first high view, slot 1 = thumbnail).
struct Subscription {
  ClientId subscriber;
  SourceId source;
  Resolution max_resolution;
  double priority = 1.0;  // multiplies QoE utilities (speaker/host/screen)
  int slot = 0;

  bool operator==(const Subscription& o) const {
    return subscriber == o.subscriber && source == o.source &&
           max_resolution == o.max_resolution && priority == o.priority &&
           slot == o.slot;
  }
};

// Per-client network budgets (B_u, B_d), already net of audio protection.
struct ClientBudget {
  ClientId client;
  DataRate uplink;
  DataRate downlink;
};

// The full orchestration input: the "global picture" snapshot (§4.2).
struct OrchestrationProblem {
  std::vector<ClientBudget> budgets;
  std::vector<SourceCapability> capabilities;
  std::vector<Subscription> subscriptions;
};

// --- Solution -------------------------------------------------------------

// One stream a source must publish: the merged policy (M_R_i, s_R_i).
struct PublishedStream {
  Resolution resolution;
  DataRate bitrate;
  double qoe = 0.0;
  // Subscribers receiving this stream, identified by (subscriber, slot).
  struct Receiver {
    ClientId subscriber;
    int slot = 0;
    bool operator==(const Receiver& o) const {
      return subscriber == o.subscriber && slot == o.slot;
    }
    bool operator<(const Receiver& o) const {
      if (subscriber != o.subscriber) return subscriber < o.subscriber;
      return slot < o.slot;
    }
  };
  std::vector<Receiver> receivers;
};

// Per-solve controller trace: algorithm work counts plus per-step wall
// time. Filled by every Orchestrator::Solve and carried on the returned
// Solution, so callers no longer reach back into the (const) orchestrator
// for mutable "last stats". Wall times are host-clock microseconds — the
// one place the library reads wall time, because they measure the
// controller implementation itself, not simulated behaviour.
struct SolveStats {
  int iterations = 0;
  int knapsack_solves = 0;  // MCKP instances actually solved (not cached)
  int reductions = 0;
  int uplink_fixes = 0;
  // Warm-start trace: subscribers whose cached Step-1 result was
  // invalidated by the input delta, and Step-1 solves answered from the
  // warm cache instead of re-running the knapsack. Cold solves report
  // dirty_subscribers == all subscribers and zero cache hits.
  int dirty_subscribers = 0;
  int step1_cache_hits = 0;
  // DP cells relaxed (one item tried at one value cell) by the Step-1 and
  // Step-3 knapsacks: an exact, host-independent measure of solver work.
  int64_t dp_cells = 0;
  double compile_wall_us = 0.0;  // problem -> dense-index compilation
  double warm_diff_wall_us = 0.0;  // old-vs-new diff on the warm path
  double step1_wall_us = 0.0;    // per-subscriber knapsacks and replays
  // The part of step1_wall_us spent solving knapsacks; the rest replays
  // cached results and probes the cache.
  double step1_mckp_wall_us = 0.0;
  double step2_wall_us = 0.0;    // per-source merges
  double step3_wall_us = 0.0;    // uplink checks / fixes / reductions
  double assemble_wall_us = 0.0;  // final publish + per_subscriber assembly
  // Whole solve including compilation; the stage walls above are disjoint
  // spans inside it, so their sum never exceeds it.
  double total_wall_us = 0.0;
};

struct Solution {
  // Publish policy P_i per source.
  std::map<SourceId, std::vector<PublishedStream>> publish;
  // Objective value: sum over subscriptions of priority-weighted QoE of the
  // assigned stream (after Merge/Reduction adjustments).
  double total_qoe = 0.0;
  // The paper's Eq. (1) objective: the Step-1 knapsack value summed over
  // all subscribers in the final iteration, before Merge lowers bitrates.
  // This is the quantity Fig. 6's "QoE optimality" compares.
  double step1_qoe = 0.0;
  int iterations = 0;

  // Solve trace (work counts + per-step wall time); stats.iterations
  // always equals `iterations` above.
  SolveStats stats;

  // Convenience: the stream assigned to one subscription, if any.
  struct Assigned {
    Resolution resolution;
    DataRate bitrate;
  };
  std::map<std::pair<ClientId, int>, std::map<SourceId, Assigned>>
      per_subscriber;
};

// --- Ladder construction ----------------------------------------------

// Concave QoE utility: strictly increasing in bitrate with decreasing
// marginal utility, so utility/bitrate falls with bitrate and small streams
// win ties (the paper's small-stream protection, §4.4). Scaled so the
// Table-1 anchor (300 kbps -> 300) holds.
double DefaultQoe(DataRate bitrate);

struct LadderSpec {
  Resolution resolution;
  DataRate min_bitrate;
  DataRate max_bitrate;
  int levels = 5;
};

// Builds a feasible stream set with `levels` geometrically spaced bitrates
// per resolution and DefaultQoe utilities.
std::vector<StreamOption> BuildLadder(const std::vector<LadderSpec>& specs);

// The paper's Table 1 example ladder (720p/360p/180p, 3+4+2 levels with
// the exact QoE values from the table).
std::vector<StreamOption> Table1Ladder();

// A deployment-style ladder: 720p/360p/180p with `levels_per_resolution`
// fine-grained bitrates each (the paper deploys up to 15 levels total).
std::vector<StreamOption> FineLadder(int levels_per_resolution = 5);

// A coarse 3-level ladder as used by template-based Simulcast
// (1.5 Mbps/720p, 600 kbps/360p, 300 kbps/180p — the Fig. 3 examples).
std::vector<StreamOption> CoarseLadder();

}  // namespace gso::core

#endif  // GSO_CORE_TYPES_H_
