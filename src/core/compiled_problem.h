// Dense-index compilation of an OrchestrationProblem.
//
// The orchestrator's Knapsack-Merge-Reduction loop runs every control round
// for every active conference, so its per-iteration bookkeeping must not
// touch node-based containers. CompiledProblem interns every ClientId and
// SourceId into dense integer indices once per solve, pre-groups the
// subscription graph, and pre-computes the per-source resolution slots the
// Merge step writes into — after which the hot loop runs entirely on flat
// vectors and bitmaps.
//
// Index orders are chosen to match std::map iteration (ids ascending), so
// a solve over the compiled form visits subscribers, sources, publishers
// and resolutions in exactly the order the map-based reference
// implementation did. That makes the fast path bit-identical — including
// floating-point QoE accumulation order — which the equivalence property
// test locks in.
#ifndef GSO_CORE_COMPILED_PROBLEM_H_
#define GSO_CORE_COMPILED_PROBLEM_H_

#include <algorithm>
#include <vector>

#include "common/interner.h"
#include "core/types.h"

namespace gso::core {

// One subscription edge, resolved to dense indices.
struct CompiledSubscription {
  int source = 0;  // dense source index
  Resolution max_resolution;
  double priority = 1.0;
  int slot = 0;
  const Subscription* edge = nullptr;  // original edge (solution keys)
};

// One media source, its sorted ladder and its merge slots.
struct CompiledSource {
  SourceId id;
  int owner = 0;  // dense client index of the publishing client
  // Full ladder, sorted descending resolution then descending bitrate —
  // the deterministic order Step 1 and Step 3 scan options in.
  std::vector<StreamOption> ladder;
  // Distinct resolutions ascending: one merge slot each (matches the
  // reference's std::map<Resolution> iteration order).
  std::vector<Resolution> resolutions;
  int slot_offset = 0;  // first merge slot of this source

  // Merge-slot index of `resolution` within this source, or -1.
  int SlotOf(const Resolution& resolution) const {
    for (size_t r = 0; r < resolutions.size(); ++r) {
      if (resolutions[r] == resolution) return static_cast<int>(r);
    }
    return -1;
  }
};

class CompiledProblem {
 public:
  // `problem` must outlive the compiled form (subscription edges are
  // referenced, not copied).
  static CompiledProblem Compile(const OrchestrationProblem& problem);

  // Recompiles `problem` into this object, reusing all internal storage.
  // Produces exactly the same compiled form as Compile(); when the new
  // problem has the same shape as the previous one (the steady state of a
  // control loop — only budget/ladder *values* changed), no allocation is
  // performed. The warm re-solve path recompiles every round through this.
  void CompileFrom(const OrchestrationProblem& problem);

  int num_clients() const { return clients_.size(); }
  int num_sources() const { return static_cast<int>(sources_.size()); }
  int num_subscribers() const {
    return static_cast<int>(subscriber_ids_.size());
  }
  int total_merge_slots() const { return total_merge_slots_; }

  // Interned client ids ascend with the dense index.
  ClientId client_id(int client) const { return clients_.id(client); }
  const std::vector<CompiledSource>& sources() const { return sources_; }

  // Budgets by dense client index (PlusInfinity when unreported).
  DataRate uplink(int client) const {
    return uplink_[static_cast<size_t>(client)];
  }
  DataRate downlink(int client) const {
    return downlink_[static_cast<size_t>(client)];
  }

  // Subscribers ascending by ClientId; each owns a contiguous run of
  // subscriptions (original problem order within a subscriber).
  ClientId subscriber_id(int sub) const {
    return subscriber_ids_[static_cast<size_t>(sub)];
  }
  DataRate subscriber_downlink(int sub) const {
    return downlink_[static_cast<size_t>(
        subscriber_client_[static_cast<size_t>(sub)])];
  }
  const CompiledSubscription* subscriptions_begin(int sub) const {
    return subscriptions_.data() + subscription_offset_[static_cast<size_t>(sub)];
  }
  const CompiledSubscription* subscriptions_end(int sub) const {
    return subscriptions_.data() +
           subscription_offset_[static_cast<size_t>(sub) + 1];
  }
  int subscription_count(int sub) const {
    return static_cast<int>(subscription_offset_[static_cast<size_t>(sub) + 1] -
                            subscription_offset_[static_cast<size_t>(sub)]);
  }

  // Subscriber indices (ascending) with at least one edge to `source` —
  // the set Reduction marks dirty when the source loses a resolution.
  const std::vector<int>& watchers(int source) const {
    return watchers_[static_cast<size_t>(source)];
  }

  // Dense source index of `id`, or -1 when unknown (warm-start diffing).
  int SourceIndexOf(const SourceId& id) const {
    return source_index_.IndexOf(id);
  }
  // Subscriber index of `id`, or -1 when `id` subscribes to nothing.
  int SubscriberIndexOf(const ClientId& id) const {
    const auto it =
        std::lower_bound(subscriber_ids_.begin(), subscriber_ids_.end(), id);
    if (it == subscriber_ids_.end() || !(*it == id)) return -1;
    return static_cast<int>(it - subscriber_ids_.begin());
  }
  const std::vector<ClientId>& subscriber_ids() const {
    return subscriber_ids_;
  }

 private:
  DenseInterner<ClientId> clients_;
  DenseInterner<SourceId> source_index_;
  std::vector<DataRate> uplink_;
  std::vector<DataRate> downlink_;
  std::vector<CompiledSource> sources_;
  std::vector<ClientId> subscriber_ids_;
  std::vector<int> subscriber_client_;  // dense client index per subscriber
  std::vector<CompiledSubscription> subscriptions_;
  std::vector<size_t> subscription_offset_;  // per subscriber + sentinel
  std::vector<std::vector<int>> watchers_;
  int total_merge_slots_ = 0;

  // Grow-only compilation scratch (reused by CompileFrom).
  std::vector<ClientId> scratch_client_ids_;
  std::vector<SourceId> scratch_source_ids_;
  std::vector<int> scratch_edge_source_;   // dense source per edge, or -1
  std::vector<int> scratch_edge_client_;   // dense subscriber per kept edge,
                                           // -1 for a dropped edge
  std::vector<int> scratch_edge_count_;    // valid edges per dense client
  std::vector<int> scratch_sub_of_client_; // dense client -> subscriber idx
  std::vector<size_t> scratch_cursor_;     // per-subscriber placement cursor
};

}  // namespace gso::core

#endif  // GSO_CORE_COMPILED_PROBLEM_H_
