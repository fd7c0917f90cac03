#include "core/compiled_problem.h"

#include <algorithm>

namespace gso::core {

CompiledProblem CompiledProblem::Compile(const OrchestrationProblem& problem) {
  CompiledProblem compiled;
  compiled.CompileFrom(problem);
  return compiled;
}

void CompiledProblem::CompileFrom(const OrchestrationProblem& problem) {
  // Sources ascending by SourceId; duplicate capabilities overwrite
  // (last-wins, as map assignment would).
  {
    auto& ids = scratch_source_ids_;
    ids.clear();
    ids.reserve(problem.capabilities.size());
    for (const auto& c : problem.capabilities) ids.push_back(c.source);
    source_index_.Rebuild(ids);
  }

  // Intern every client id that can appear in a lookup. Indices ascend
  // with ClientId, so index iteration == std::map iteration. A subscriber
  // is pushed once per run of equal subscribers, and an edge's source
  // client only when the source is unknown: a known source's client is
  // already pushed through its capability, so the interned set is the
  // union of every budget, capability and edge client all the same. Each
  // edge's source index is resolved here, once.
  const auto& subscriptions = problem.subscriptions;
  const size_t n_edges = subscriptions.size();
  auto& edge_source = scratch_edge_source_;
  edge_source.resize(n_edges);
  {
    auto& ids = scratch_client_ids_;
    ids.clear();
    for (const auto& b : problem.budgets) ids.push_back(b.client);
    for (const auto& c : problem.capabilities) ids.push_back(c.source.client);
    for (size_t e = 0; e < n_edges; ++e) {
      const Subscription& sub = subscriptions[e];
      if (e == 0 || !(sub.subscriber == subscriptions[e - 1].subscriber)) {
        ids.push_back(sub.subscriber);
      }
      edge_source[e] = source_index_.IndexOf(sub.source);
      if (edge_source[e] < 0) ids.push_back(sub.source.client);
    }
    clients_.Rebuild(ids);
  }

  // Budgets by dense client index; later entries overwrite earlier ones,
  // matching map assignment in the reference.
  const size_t n_clients = static_cast<size_t>(clients_.size());
  uplink_.assign(n_clients, DataRate::PlusInfinity());
  downlink_.assign(n_clients, DataRate::PlusInfinity());
  for (const auto& b : problem.budgets) {
    const int idx = clients_.IndexOf(b.client);
    uplink_[static_cast<size_t>(idx)] = b.uplink;
    downlink_[static_cast<size_t>(idx)] = b.downlink;
  }

  sources_.resize(static_cast<size_t>(source_index_.size()));
  for (const auto& cap : problem.capabilities) {
    const int idx = source_index_.IndexOf(cap.source);
    auto& source = sources_[static_cast<size_t>(idx)];
    source.id = cap.source;
    source.owner = clients_.IndexOf(cap.source.client);
    source.ladder = cap.options;  // copy-assign: reuses capacity when warm
  }
  int slot_offset = 0;
  for (auto& source : sources_) {
    // Deterministic option order: descending resolution then descending
    // bitrate (identical comparator to the reference sort).
    std::sort(source.ladder.begin(), source.ladder.end(),
              [](const StreamOption& a, const StreamOption& b) {
                if (!(a.resolution == b.resolution))
                  return b.resolution < a.resolution;
                return b.bitrate < a.bitrate;
              });
    source.resolutions.clear();
    for (const auto& option : source.ladder) {
      source.resolutions.push_back(option.resolution);
    }
    std::sort(source.resolutions.begin(), source.resolutions.end());
    source.resolutions.erase(
        std::unique(source.resolutions.begin(), source.resolutions.end()),
        source.resolutions.end());
    source.slot_offset = slot_offset;
    slot_offset += static_cast<int>(source.resolutions.size());
  }
  total_merge_slots_ = slot_offset;

  // Group subscriptions per subscriber, dropping invalid edges (self-
  // subscriptions and edges to unknown sources), preserving problem order
  // within each subscriber. Each edge's subscriber is resolved once per run
  // of equal subscribers (-1 marks a dropped edge), and both passes below
  // reuse it. Two passes (count, then place) keep the grouping
  // allocation-free: a counting sort is stable, so within each subscriber
  // the edges land in problem order, exactly as the per-client bucket
  // build did.
  auto& edge_client = scratch_edge_client_;
  edge_client.resize(n_edges);
  auto& edge_count = scratch_edge_count_;
  edge_count.assign(n_clients, 0);
  int run_client = -1;
  for (size_t e = 0; e < n_edges; ++e) {
    const Subscription& sub = subscriptions[e];
    if (e == 0 || !(sub.subscriber == subscriptions[e - 1].subscriber)) {
      run_client = clients_.IndexOf(sub.subscriber);
    }
    // N_i excludes i, and an edge to an unknown source is dropped.
    const bool valid =
        !(sub.subscriber == sub.source.client) && edge_source[e] >= 0;
    edge_client[e] = valid ? run_client : -1;
    if (valid) ++edge_count[static_cast<size_t>(run_client)];
  }
  subscriber_ids_.clear();
  subscriber_client_.clear();
  subscription_offset_.clear();
  subscription_offset_.push_back(0);
  auto& sub_of_client = scratch_sub_of_client_;
  sub_of_client.assign(n_clients, -1);
  size_t total_edges = 0;
  for (size_t c = 0; c < n_clients; ++c) {
    if (edge_count[c] == 0) continue;
    sub_of_client[c] = static_cast<int>(subscriber_ids_.size());
    subscriber_ids_.push_back(clients_.id(static_cast<int>(c)));
    subscriber_client_.push_back(static_cast<int>(c));
    total_edges += static_cast<size_t>(edge_count[c]);
    subscription_offset_.push_back(total_edges);
  }
  subscriptions_.resize(total_edges);
  scratch_cursor_.assign(subscription_offset_.begin(),
                         subscription_offset_.end() - 1);
  for (size_t e = 0; e < n_edges; ++e) {
    if (edge_client[e] < 0) continue;
    const Subscription& sub = subscriptions[e];
    const int sub_idx = sub_of_client[static_cast<size_t>(edge_client[e])];
    subscriptions_[scratch_cursor_[static_cast<size_t>(sub_idx)]++] =
        CompiledSubscription{edge_source[e], sub.max_resolution, sub.priority,
                             sub.slot, &sub};
  }

  // Reverse index: which subscribers watch each source (ascending).
  // Subscribers are visited in ascending order, so a duplicate edge to the
  // same source shows up as the list's current tail — no `seen` set needed.
  watchers_.resize(sources_.size());
  for (auto& w : watchers_) w.clear();
  for (size_t sub = 0; sub < subscriber_ids_.size(); ++sub) {
    for (size_t e = subscription_offset_[sub];
         e < subscription_offset_[sub + 1]; ++e) {
      auto& w = watchers_[static_cast<size_t>(subscriptions_[e].source)];
      if (w.empty() || w.back() != static_cast<int>(sub)) {
        w.push_back(static_cast<int>(sub));
      }
    }
  }
}

}  // namespace gso::core
