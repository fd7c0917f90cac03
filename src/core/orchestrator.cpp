#include "core/orchestrator.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/logging.h"

namespace gso::core {

// Step-1 result for one subscription edge: the edge's index within the
// subscriber's run plus the chosen option. The option is copied (not
// indexed) because requests are cached across iterations — and, on the
// warm path, across solves — while Reduction shrinks the active ladders
// underneath them. Indices (not pointers) keep cached results valid across
// recompiles: the edge is re-resolved against the current compiled form.
struct Step1Request {
  int k = 0;  // index into the subscriber's subscription run
  StreamOption option;
};

namespace {

// One (source, resolution) merge slot: the minimum requested bitrate and
// the receivers that asked for this resolution.
struct MergeSlot {
  bool used = false;
  DataRate bitrate;
  double qoe = 0.0;
  std::vector<PublishedStream::Receiver> receivers;
};

// Step-1 scratch: each subscriber's knapsack instance is built and solved
// in these buffers, reused across subscribers and solves. Grow-only:
// classes are never shrunk (shrinking would free the per-class item
// buffers), the live prefix is passed to the solver as a span.
struct Step1Scratch {
  std::vector<MckpClass> classes;
  std::vector<std::vector<int>> class_options;  // indices into active[source]
  MckpWorkspace mckp;
  MckpResult result;
  // Per-solve trace counters.
  int cache_hits = 0;
  int mckp_solves = 0;
  double mckp_wall_us = 0.0;  // inside SolveSubscriberMckp
};

// Cached Step-1 results for one subscriber. `full` is the result with no
// Reduction removals in any watched ladder (the common case: most solves
// finish in one iteration); `red` remembers the most recent reduced state,
// keyed by the per-edge removal masks. A cached result is a pure function
// of (edge list, downlink, watched ladders, removal masks): the warm diff
// invalidates both entries whenever any of the first three changed, and
// the mask key guards the fourth.
struct SubCache {
  bool full_valid = false;
  bool red_valid = false;
  std::vector<Step1Request> full;
  std::vector<Step1Request> red;
  std::vector<uint64_t> red_key;  // removal mask per edge at cache time
};

DataRate BudgetOr(const std::map<ClientId, ClientBudget>& budgets,
                  ClientId client, bool uplink) {
  const auto it = budgets.find(client);
  if (it == budgets.end()) return DataRate::PlusInfinity();
  return uplink ? it->second.uplink : it->second.downlink;
}

using SolveClock = std::chrono::steady_clock;

double ElapsedUs(SolveClock::time_point since) {
  return std::chrono::duration<double, std::micro>(SolveClock::now() - since)
      .count();
}

}  // namespace

// Grow-only scratch reused across Solve calls: after warm-up the control
// loop performs no per-iteration heap allocation beyond vector growth.
struct Orchestrator::Workspace {
  // Active feasible stream sets per source, shrunk by Reduction steps.
  std::vector<std::vector<StreamOption>> active;
  // Per source: bitmask of removed resolution slots this solve, and a flag
  // for the (pathological) case of a removal beyond bit 63, which makes
  // the mask ambiguous — watchers of such a source bypass the cache.
  std::vector<uint64_t> removed_mask;
  std::vector<uint8_t> mask_overflow;
  // Step-1 result per subscriber, recomputed only when dirty: a view of its
  // warm cache entry (`full` or `red`) or, when no entry holds it, of its
  // `solved` buffer, so a cache hit copies nothing.
  std::vector<std::span<const Step1Request>> requests;
  std::vector<std::vector<Step1Request>> solved;
  std::vector<uint8_t> dirty;  // per subscriber
  std::vector<MergeSlot> merged;
  // Per client: published (source, merge slot) pairs this iteration.
  std::vector<std::vector<std::pair<int, int>>> per_publisher;
  std::vector<int> used_publishers;  // clients with >= 1 stream, ascending
  Step1Scratch step1;
  // Step-3 repair knapsack scratch (serial; violations are rare).
  std::vector<MckpClass> fix_classes;
  std::vector<std::vector<StreamOption>> fix_class_options;
  MckpWorkspace fix_mckp;
  MckpResult fix_result;

  // ---- Warm-start state (SolveWarm) ----
  // Ping-pong compiled snapshots: `warm_cur` indexes the one the caches
  // refer to; each SolveWarm recompiles into the other slot, diffs, then
  // flips. The retained snapshot is only ever compared by value — its
  // `Subscription*` back-pointers are never dereferenced.
  CompiledProblem warm_compiled[2];
  int warm_cur = -1;
  bool warm_valid = false;
  std::vector<SubCache> caches;       // per subscriber of current snapshot
  std::vector<SubCache> caches_prev;  // remap scratch on membership change
  std::vector<uint8_t> source_changed;  // diff scratch, per new source

  // ---- Persistent output (zero-alloc assembly) ----
  // The Solution returned by reference from every solve. Maps are updated
  // in place: existing nodes are overwritten, stale keys erased by the
  // ordered walks below — in the steady state (same key set as the
  // previous solve) no map node is allocated or freed.
  Solution solution;
  std::vector<SourceId> cur_publish_keys;
  // The final assignments, ascending by (subscriber, slot, source); equal
  // keys keep request order, so the last of them is the one map
  // assignment would have kept.
  struct Assignment {
    ClientId subscriber;
    int slot = 0;
    int source = 0;  // dense source index: ascends with SourceId
    Solution::Assigned value;
  };
  std::vector<Assignment> assignments;
  // Recycled PublishedStream elements. When a source publishes fewer
  // streams than last solve, the trailing elements are moved here instead
  // of destroyed; when it publishes more, elements are moved back. Their
  // `receivers` buffers keep their capacity across the round trip, so a
  // delta that oscillates a source's stream count stays allocation-free.
  std::vector<PublishedStream> stream_pool;
};

Orchestrator::Orchestrator(const MckpSolver* step1_solver)
    : step1_solver_(step1_solver), ws_(std::make_unique<Workspace>()) {}

Orchestrator::~Orchestrator() = default;

const Solution& Orchestrator::Solve(const SolveRequest& request) const {
  GSO_CHECK(request.problem != nullptr);
  return request.warm ? SolveWarm(*request.problem)
                      : SolveCold(*request.problem);
}

const Solution& Orchestrator::SolveCold(
    const OrchestrationProblem& problem) const {
  const auto start = SolveClock::now();
  const CompiledProblem compiled = CompiledProblem::Compile(problem);
  const double compile_us = ElapsedUs(start);
  const Solution& solution = RunSolve(compiled, /*use_cache=*/false);
  ws_->solution.stats.compile_wall_us = compile_us;
  ws_->solution.stats.total_wall_us = ElapsedUs(start);
  return solution;
}

const Solution& Orchestrator::SolveWarm(
    const OrchestrationProblem& problem) const {
  const auto start = SolveClock::now();
  Workspace& ws = *ws_;
  const int next = ws.warm_cur < 0 ? 0 : 1 - ws.warm_cur;
  ws.warm_compiled[next].CompileFrom(problem);
  const double compile_us = ElapsedUs(start);

  const auto diff_start = SolveClock::now();
  const int dirty = PrepareWarmCaches(next);
  const double diff_us = ElapsedUs(diff_start);

  const Solution& solution = RunSolve(ws.warm_compiled[next],
                                      /*use_cache=*/true);
  ws.warm_cur = next;
  ws.warm_valid = true;
  ws.solution.stats.compile_wall_us = compile_us;
  ws.solution.stats.warm_diff_wall_us = diff_us;
  ws.solution.stats.dirty_subscribers = dirty;
  ws.solution.stats.total_wall_us = ElapsedUs(start);
  return solution;
}

void Orchestrator::ResetWarmState() const {
  Workspace& ws = *ws_;
  ws.warm_valid = false;
  ws.warm_cur = -1;
  for (auto& cache : ws.caches) {
    cache.full_valid = false;
    cache.red_valid = false;
  }
}

int Orchestrator::PrepareWarmCaches(int next) const {
  Workspace& ws = *ws_;
  const CompiledProblem& cur = ws.warm_compiled[next];
  const int num_subscribers = cur.num_subscribers();

  if (!ws.warm_valid) {
    ws.caches.resize(static_cast<size_t>(num_subscribers));
    for (auto& cache : ws.caches) {
      cache.full_valid = false;
      cache.red_valid = false;
    }
    return num_subscribers;
  }

  const CompiledProblem& prev = ws.warm_compiled[ws.warm_cur];

  // Which sources changed? A source is changed when it is new or its full
  // ladder differs (content compare; the ladder is sorted deterministically
  // by compilation, so equal sets compare equal). Every watcher of a
  // changed source must re-solve: its knapsack classes were built from the
  // old ladder.
  const int num_sources = cur.num_sources();
  ws.source_changed.resize(static_cast<size_t>(num_sources));
  for (int s = 0; s < num_sources; ++s) {
    const CompiledSource& source = cur.sources()[static_cast<size_t>(s)];
    const int old = prev.SourceIndexOf(source.id);
    bool changed = old < 0;
    if (!changed) {
      changed = !(prev.sources()[static_cast<size_t>(old)].ladder ==
                  source.ladder);
    }
    ws.source_changed[static_cast<size_t>(s)] = changed ? 1 : 0;
  }

  // Remap caches when the subscriber membership changed (joins/leaves
  // shift dense indices); the steady state is an identical list, which
  // skips the remap entirely.
  const bool same_members = prev.subscriber_ids() == cur.subscriber_ids();
  if (!same_members) {
    ws.caches_prev.swap(ws.caches);
    ws.caches.resize(static_cast<size_t>(num_subscribers));
    for (int sub = 0; sub < num_subscribers; ++sub) {
      SubCache& cache = ws.caches[static_cast<size_t>(sub)];
      const int old = prev.SubscriberIndexOf(cur.subscriber_id(sub));
      if (old >= 0) {
        cache = std::move(ws.caches_prev[static_cast<size_t>(old)]);
      } else {
        cache.full_valid = false;
        cache.red_valid = false;
      }
    }
  }

  // Per-subscriber validity: the cached Step-1 result is reusable iff the
  // subscriber's downlink, its edge list (source identity, cap, priority,
  // slot — compared by value, positionally) and every watched ladder are
  // unchanged.
  int dirty = 0;
  for (int sub = 0; sub < num_subscribers; ++sub) {
    SubCache& cache = ws.caches[static_cast<size_t>(sub)];
    bool valid = cache.full_valid || cache.red_valid;
    const int old_sub =
        valid ? (same_members ? sub : prev.SubscriberIndexOf(
                                          cur.subscriber_id(sub)))
              : -1;
    if (valid) {
      valid = old_sub >= 0 &&
              prev.subscriber_downlink(old_sub) ==
                  cur.subscriber_downlink(sub) &&
              prev.subscription_count(old_sub) == cur.subscription_count(sub);
    }
    if (valid) {
      const CompiledSubscription* old_edges =
          prev.subscriptions_begin(old_sub);
      const CompiledSubscription* new_edges = cur.subscriptions_begin(sub);
      const int n = cur.subscription_count(sub);
      for (int k = 0; k < n && valid; ++k) {
        const CompiledSubscription& a = old_edges[k];
        const CompiledSubscription& b = new_edges[k];
        valid =
            prev.sources()[static_cast<size_t>(a.source)].id ==
                cur.sources()[static_cast<size_t>(b.source)].id &&
            a.max_resolution == b.max_resolution &&
            a.priority == b.priority && a.slot == b.slot &&
            !ws.source_changed[static_cast<size_t>(b.source)];
      }
    }
    if (!valid) {
      cache.full_valid = false;
      cache.red_valid = false;
      ++dirty;
    }
  }
  return dirty;
}

void Orchestrator::SolveSubscriberMckp(
    const CompiledProblem& compiled, int subscriber,
    std::vector<Step1Request>* requests) const {
  const auto start = SolveClock::now();
  Workspace& ws = *ws_;
  Step1Scratch& scratch = ws.step1;
  const CompiledSubscription* edges = compiled.subscriptions_begin(subscriber);
  const size_t n = static_cast<size_t>(compiled.subscription_count(subscriber));

  // Grow-only: never shrink `classes` (that would free per-class item
  // buffers); the live prefix [0, n) is what the solver sees.
  if (scratch.classes.size() < n) scratch.classes.resize(n);
  if (scratch.class_options.size() < n) scratch.class_options.resize(n);
  for (size_t k = 0; k < n; ++k) {
    const CompiledSubscription& edge = edges[k];
    MckpClass& cls = scratch.classes[k];
    cls.items.clear();
    cls.mandatory = false;
    auto& opts = scratch.class_options[k];
    opts.clear();
    const auto& active = ws.active[static_cast<size_t>(edge.source)];
    for (size_t i = 0; i < active.size(); ++i) {
      const StreamOption& option = active[i];
      if (option.resolution <= edge.max_resolution) {
        cls.items.push_back(
            MckpItem{option.bitrate.bps(), option.qoe * edge.priority});
        opts.push_back(static_cast<int>(i));
      }
    }
  }

  const DataRate downlink = compiled.subscriber_downlink(subscriber);
  const int64_t capacity = downlink.IsFinite()
                               ? downlink.bps()
                               : std::numeric_limits<int64_t>::max() / 4;
  step1_solver_->Solve(std::span(scratch.classes.data(), n), capacity,
                       &scratch.mckp, &scratch.result);
  ++scratch.mckp_solves;

  requests->clear();
  for (size_t k = 0; k < n; ++k) {
    if (scratch.result.choice[k] < 0) continue;
    const int option_index = scratch.class_options[k][static_cast<size_t>(
        scratch.result.choice[k])];
    requests->push_back(Step1Request{
        static_cast<int>(k), ws.active[static_cast<size_t>(edges[k].source)]
                                      [static_cast<size_t>(option_index)]});
  }
  ws.requests[static_cast<size_t>(subscriber)] = *requests;
  scratch.mckp_wall_us += ElapsedUs(start);
}

void Orchestrator::Step1ForSubscriber(const CompiledProblem& compiled,
                                      int subscriber,
                                      bool use_cache) const {
  Workspace& ws = *ws_;
  auto& solved = ws.solved[static_cast<size_t>(subscriber)];
  if (!use_cache) {
    SolveSubscriberMckp(compiled, subscriber, &solved);
    return;
  }

  // Probe the warm cache. The removal state of the watched sources is the
  // remaining input dimension: all-zero masks hit the `full` entry, a
  // nonzero state hits `red` iff the per-edge masks match its key. A
  // cached result replayed here is bit-identical to re-solving: the diff
  // guaranteed identical edges, downlink and ladders, and the mask pins
  // the identical active subset.
  SubCache& cache = ws.caches[static_cast<size_t>(subscriber)];
  const CompiledSubscription* edges = compiled.subscriptions_begin(subscriber);
  const size_t n = static_cast<size_t>(compiled.subscription_count(subscriber));
  bool cacheable = true;
  bool all_zero = true;
  bool red_match = cache.red_valid && cache.red_key.size() == n;
  for (size_t k = 0; k < n; ++k) {
    const size_t source = static_cast<size_t>(edges[k].source);
    if (ws.mask_overflow[source]) cacheable = false;
    const uint64_t mask = ws.removed_mask[source];
    if (mask != 0) all_zero = false;
    if (red_match && cache.red_key[k] != mask) red_match = false;
  }
  if (cacheable) {
    if (all_zero && cache.full_valid) {
      ws.requests[static_cast<size_t>(subscriber)] = cache.full;
      ++ws.step1.cache_hits;
      return;
    }
    if (!all_zero && red_match) {
      ws.requests[static_cast<size_t>(subscriber)] = cache.red;
      ++ws.step1.cache_hits;
      return;
    }
  }

  // A miss solves straight into the entry it refills.
  if (!cacheable) {
    SolveSubscriberMckp(compiled, subscriber, &solved);
  } else if (all_zero) {
    SolveSubscriberMckp(compiled, subscriber, &cache.full);
    cache.full_valid = true;
  } else {
    cache.red_key.clear();
    for (size_t k = 0; k < n; ++k) {
      cache.red_key.push_back(
          ws.removed_mask[static_cast<size_t>(edges[k].source)]);
    }
    SolveSubscriberMckp(compiled, subscriber, &cache.red);
    cache.red_valid = true;
  }
}

const Solution& Orchestrator::RunSolve(const CompiledProblem& compiled,
                                       bool use_cache) const {
  const auto solve_start = SolveClock::now();
  SolveStats stats;
  Workspace& ws = *ws_;
  const auto& sources = compiled.sources();
  const int num_sources = compiled.num_sources();
  const int num_subscribers = compiled.num_subscribers();
  if (!use_cache) stats.dirty_subscribers = num_subscribers;

  ws.active.resize(static_cast<size_t>(num_sources));
  for (int s = 0; s < num_sources; ++s) {
    ws.active[static_cast<size_t>(s)] = sources[static_cast<size_t>(s)].ladder;
  }
  ws.removed_mask.assign(static_cast<size_t>(num_sources), 0);
  ws.mask_overflow.assign(static_cast<size_t>(num_sources), 0);
  ws.requests.resize(static_cast<size_t>(num_subscribers));
  if (ws.solved.size() < static_cast<size_t>(num_subscribers)) {
    ws.solved.resize(static_cast<size_t>(num_subscribers));
  }
  ws.dirty.assign(static_cast<size_t>(num_subscribers), 1);
  ws.merged.resize(static_cast<size_t>(compiled.total_merge_slots()));
  ws.per_publisher.resize(static_cast<size_t>(compiled.num_clients()));
  for (auto& streams : ws.per_publisher) streams.clear();
  ws.used_publishers.clear();
  ws.step1.cache_hits = 0;
  ws.step1.mckp_solves = 0;
  ws.step1.mckp_wall_us = 0.0;
  ws.step1.mckp.cells_relaxed = 0;
  ws.fix_mckp.cells_relaxed = 0;

  // Each resolution can be removed at most once; one extra pass terminates.
  const int max_iterations = compiled.total_merge_slots() + 1;

  Solution& solution = ws.solution;
  solution.total_qoe = 0.0;
  solution.step1_qoe = 0.0;
  solution.iterations = 0;
  for (int iteration = 1; iteration <= max_iterations; ++iteration) {
    stats.iterations = iteration;

    // ---- Step 1: per-subscriber Multiple-Choice Knapsack ----
    // Only dirty subscribers are re-solved, in ascending order.
    const auto step1_start = SolveClock::now();
    for (int sub = 0; sub < num_subscribers; ++sub) {
      if (ws.dirty[static_cast<size_t>(sub)]) {
        Step1ForSubscriber(compiled, sub, use_cache);
      }
    }
    std::fill(ws.dirty.begin(), ws.dirty.end(), static_cast<uint8_t>(0));
    stats.step1_wall_us += ElapsedUs(step1_start);

    // ---- Step 2: per-source merge by resolution ----
    const auto step2_start = SolveClock::now();
    for (auto& slot : ws.merged) {
      slot.used = false;
      slot.receivers.clear();
    }
    for (int sub = 0; sub < num_subscribers; ++sub) {
      const ClientId subscriber = compiled.subscriber_id(sub);
      const CompiledSubscription* edges = compiled.subscriptions_begin(sub);
      for (const auto& req : ws.requests[static_cast<size_t>(sub)]) {
        const CompiledSubscription& edge =
            edges[static_cast<size_t>(req.k)];
        const CompiledSource& source =
            sources[static_cast<size_t>(edge.source)];
        const size_t slot_index = static_cast<size_t>(
            source.slot_offset + source.SlotOf(req.option.resolution));
        MergeSlot& slot = ws.merged[slot_index];
        if (!slot.used || req.option.bitrate < slot.bitrate) {
          slot.bitrate = req.option.bitrate;
          slot.qoe = req.option.qoe;
        }
        slot.used = true;
        slot.receivers.push_back(
            PublishedStream::Receiver{subscriber, edge.slot});
      }
    }

    stats.step2_wall_us += ElapsedUs(step2_start);

    // ---- Step 3: per-publisher uplink check / fix / reduction ----
    const auto step3_start = SolveClock::now();
    // Sources ascend by (client, kind), so walking them in index order
    // discovers publishers in ascending client order with each publisher's
    // streams in (source, resolution) order — the reference map order.
    for (const int client : ws.used_publishers) {
      ws.per_publisher[static_cast<size_t>(client)].clear();
    }
    ws.used_publishers.clear();
    for (int s = 0; s < num_sources; ++s) {
      const CompiledSource& source = sources[static_cast<size_t>(s)];
      for (size_t r = 0; r < source.resolutions.size(); ++r) {
        const int slot_index = source.slot_offset + static_cast<int>(r);
        if (!ws.merged[static_cast<size_t>(slot_index)].used) continue;
        auto& streams = ws.per_publisher[static_cast<size_t>(source.owner)];
        if (streams.empty()) ws.used_publishers.push_back(source.owner);
        streams.emplace_back(s, slot_index);
      }
    }

    int reduce_client = -1;
    for (const int client : ws.used_publishers) {
      const DataRate uplink = compiled.uplink(client);
      if (!uplink.IsFinite()) continue;
      const auto& streams = ws.per_publisher[static_cast<size_t>(client)];
      DataRate published;
      for (const auto& [s, slot_index] : streams) {
        published += ws.merged[static_cast<size_t>(slot_index)].bitrate;
      }
      if (published <= uplink) continue;  // Eq. (14) holds

      // Eq. (17): fixable iff the per-resolution minimum bitrates fit.
      DataRate floor_total;
      bool floor_ok = true;
      if (ws.fix_classes.size() < streams.size()) {
        ws.fix_classes.resize(streams.size());
      }
      if (ws.fix_class_options.size() < streams.size()) {
        ws.fix_class_options.resize(streams.size());
      }
      for (size_t k = 0; k < streams.size(); ++k) {
        const auto& [s, slot_index] = streams[k];
        const CompiledSource& source = sources[static_cast<size_t>(s)];
        const MergeSlot& stream =
            ws.merged[static_cast<size_t>(slot_index)];
        const Resolution resolution =
            source.resolutions[static_cast<size_t>(slot_index -
                                                   source.slot_offset)];
        MckpClass& cls = ws.fix_classes[k];
        cls.items.clear();
        cls.mandatory = true;
        auto& opts = ws.fix_class_options[k];
        opts.clear();
        DataRate cheapest = DataRate::PlusInfinity();
        for (const auto& option : ws.active[static_cast<size_t>(s)]) {
          if (!(option.resolution == resolution)) continue;
          if (option.bitrate > stream.bitrate) continue;  // Eq. (16)
          cls.items.push_back(MckpItem{option.bitrate.bps(), option.qoe});
          opts.push_back(option);
          cheapest = std::min(cheapest, option.bitrate);
        }
        if (!cheapest.IsFinite()) {
          floor_ok = false;
          break;
        }
        floor_total += cheapest;
      }

      if (floor_ok && floor_total <= uplink) {
        // Fix by the small mandatory knapsack over B_u (Eq. 15-16).
        fix_solver_.Solve(std::span(ws.fix_classes.data(), streams.size()),
                          uplink.bps(), &ws.fix_mckp, &ws.fix_result);
        const MckpResult& fix = ws.fix_result;
        ++stats.knapsack_solves;
        if (fix.feasible) {
          ++stats.uplink_fixes;
          for (size_t k = 0; k < streams.size(); ++k) {
            GSO_CHECK_GE(fix.choice[k], 0);
            const StreamOption& replacement =
                ws.fix_class_options[k][static_cast<size_t>(fix.choice[k])];
            MergeSlot& slot =
                ws.merged[static_cast<size_t>(streams[k].second)];
            slot.bitrate = replacement.bitrate;
            slot.qoe = replacement.qoe;
          }
          continue;
        }
      }
      // Unfixable: remember the first offender; reduce one publisher per
      // iteration (paper §4.1.3).
      reduce_client = client;
      break;
    }

    if (reduce_client < 0) {
      stats.step3_wall_us += ElapsedUs(step3_start);
      // Every constraint satisfied: assemble the final solution into the
      // persistent Solution. Map values are overwritten in place and stale
      // entries are erased by ordered walks, so a steady-state re-solve
      // allocates nothing.
      const auto assemble_start = SolveClock::now();
      ws.cur_publish_keys.clear();
      for (int s = 0; s < num_sources; ++s) {
        const CompiledSource& source = sources[static_cast<size_t>(s)];
        std::vector<PublishedStream>* publish = nullptr;
        size_t used = 0;
        for (size_t r = 0; r < source.resolutions.size(); ++r) {
          MergeSlot& slot =
              ws.merged[static_cast<size_t>(source.slot_offset) + r];
          if (!slot.used) continue;
          if (publish == nullptr) {
            publish = &solution.publish[source.id];
            ws.cur_publish_keys.push_back(source.id);
          }
          if (used == publish->size()) {
            if (!ws.stream_pool.empty()) {
              publish->push_back(std::move(ws.stream_pool.back()));
              ws.stream_pool.pop_back();
            } else {
              publish->emplace_back();
            }
          }
          PublishedStream& stream = (*publish)[used++];
          stream.resolution = source.resolutions[r];
          stream.bitrate = slot.bitrate;
          stream.qoe = slot.qoe;
          stream.receivers = slot.receivers;
          // Step 2 appends receivers by ascending subscriber, so the list
          // is usually sorted already; operator< is a total order on
          // (subscriber, slot), so skipping the sort then changes nothing.
          if (!std::is_sorted(stream.receivers.begin(),
                              stream.receivers.end())) {
            std::sort(stream.receivers.begin(), stream.receivers.end());
          }
        }
        while (publish != nullptr && publish->size() > used) {
          ws.stream_pool.push_back(std::move(publish->back()));
          publish->pop_back();
        }
      }
      // Erase publishers that no longer publish. Both the map and the key
      // list ascend, and every collected key is present in the map, so a
      // single merge walk finds exactly the stale entries.
      {
        auto it = solution.publish.begin();
        auto key = ws.cur_publish_keys.begin();
        while (it != solution.publish.end()) {
          if (key != ws.cur_publish_keys.end() && it->first == *key) {
            ++it;
            ++key;
          } else {
            for (auto& s : it->second) ws.stream_pool.push_back(std::move(s));
            it = solution.publish.erase(it);
          }
        }
      }

      // Collect the assignments in request order, which keeps the QoE
      // accumulation order, and sort each subscriber's few entries by
      // (slot, source). Subscribers already ascend, so the whole list is
      // in map key order. The insertion sort is stable.
      auto& assignments = ws.assignments;
      assignments.clear();
      for (int sub = 0; sub < num_subscribers; ++sub) {
        const ClientId subscriber = compiled.subscriber_id(sub);
        const CompiledSubscription* edges = compiled.subscriptions_begin(sub);
        const size_t first = assignments.size();
        for (const auto& req : ws.requests[static_cast<size_t>(sub)]) {
          const CompiledSubscription& edge =
              edges[static_cast<size_t>(req.k)];
          solution.step1_qoe += req.option.qoe * edge.priority;
          const CompiledSource& source =
              sources[static_cast<size_t>(edge.source)];
          const int r = source.SlotOf(req.option.resolution);
          GSO_CHECK_GE(r, 0);
          const MergeSlot& slot = ws.merged[static_cast<size_t>(
              source.slot_offset + r)];
          GSO_CHECK(slot.used);
          solution.total_qoe += slot.qoe * edge.priority;
          const Workspace::Assignment entry{
              subscriber, edge.slot, edge.source,
              Solution::Assigned{req.option.resolution, slot.bitrate}};
          size_t at = assignments.size();
          assignments.push_back(entry);
          for (; at > first &&
                 std::tie(entry.slot, entry.source) <
                     std::tie(assignments[at - 1].slot,
                              assignments[at - 1].source);
               --at) {
            assignments[at] = assignments[at - 1];
          }
          assignments[at] = entry;
        }
      }
      // One ordered walk of per_subscriber: overwrite the values of kept
      // keys, insert new keys at their hint, erase the keys no assignment
      // names any more.
      auto& assigned = solution.per_subscriber;
      auto outer = assigned.begin();
      for (size_t i = 0; i < assignments.size();) {
        const std::pair<ClientId, int> key{assignments[i].subscriber,
                                           assignments[i].slot};
        while (outer != assigned.end() && outer->first < key) {
          outer = assigned.erase(outer);
        }
        if (outer == assigned.end() || key < outer->first) {
          outer = assigned.emplace_hint(outer, key, decltype(outer->second){});
        }
        auto& inner = outer->second;
        auto it = inner.begin();
        for (; i < assignments.size() &&
               assignments[i].subscriber == key.first &&
               assignments[i].slot == key.second;
             ++i) {
          const Workspace::Assignment& entry = assignments[i];
          if (i + 1 < assignments.size() &&
              assignments[i + 1].subscriber == entry.subscriber &&
              assignments[i + 1].slot == entry.slot &&
              assignments[i + 1].source == entry.source) {
            continue;  // a later request for the same key wins
          }
          const SourceId& id = sources[static_cast<size_t>(entry.source)].id;
          while (it != inner.end() && it->first < id) it = inner.erase(it);
          if (it != inner.end() && it->first == id) {
            (it++)->second = entry.value;
          } else {
            inner.emplace_hint(it, id, entry.value);
          }
        }
        inner.erase(it, inner.end());
        ++outer;
      }
      assigned.erase(outer, assigned.end());

      solution.iterations = iteration;
      stats.knapsack_solves += ws.step1.mckp_solves;
      stats.step1_cache_hits += ws.step1.cache_hits;
      stats.step1_mckp_wall_us = ws.step1.mckp_wall_us;
      stats.dp_cells =
          ws.step1.mckp.cells_relaxed + ws.fix_mckp.cells_relaxed;
      stats.assemble_wall_us = ElapsedUs(assemble_start);
      solution.stats = stats;
      solution.stats.total_wall_us = ElapsedUs(solve_start);
      return solution;
    }

    // ---- Reduction (Eq. 18-20): drop the highest published resolution of
    // the offending client and invalidate affected subscribers.
    ++stats.reductions;
    Resolution highest{0, 0};
    int victim = -1;
    for (const auto& [s, slot_index] :
         ws.per_publisher[static_cast<size_t>(reduce_client)]) {
      const CompiledSource& source = sources[static_cast<size_t>(s)];
      const Resolution resolution =
          source.resolutions[static_cast<size_t>(slot_index -
                                                 source.slot_offset)];
      if (highest < resolution || highest.PixelCount() == 0) {
        highest = resolution;
        victim = s;
      }
    }
    GSO_CHECK_GE(victim, 0);
    auto& options = ws.active[static_cast<size_t>(victim)];
    options.erase(std::remove_if(options.begin(), options.end(),
                                 [&](const StreamOption& o) {
                                   return o.resolution == highest;
                                 }),
                  options.end());
    {
      const CompiledSource& source = sources[static_cast<size_t>(victim)];
      const int r = source.SlotOf(highest);
      GSO_CHECK_GE(r, 0);
      if (r < 64) {
        ws.removed_mask[static_cast<size_t>(victim)] |= uint64_t{1} << r;
      } else {
        ws.mask_overflow[static_cast<size_t>(victim)] = 1;
      }
    }
    for (const int sub : compiled.watchers(victim)) {
      ws.dirty[static_cast<size_t>(sub)] = 1;
    }
    stats.step3_wall_us += ElapsedUs(step3_start);
  }

  // The iteration bound guarantees we never get here: every pass without a
  // solution removes one resolution and the loop runs one extra pass.
  GSO_CHECK(false);
  return solution;
}

std::string ValidateSolution(const OrchestrationProblem& problem,
                             const Solution& solution) {
  std::ostringstream err;
  std::map<ClientId, ClientBudget> budgets;
  for (const auto& b : problem.budgets) budgets[b.client] = b;
  std::map<SourceId, const SourceCapability*> caps;
  for (const auto& c : problem.capabilities) caps[c.source] = &c;
  // (subscriber, source, slot) -> first matching edge in problem order.
  std::map<std::tuple<ClientId, SourceId, int>, const Subscription*> edges;
  for (const auto& sub : problem.subscriptions) {
    edges.emplace(std::make_tuple(sub.subscriber, sub.source, sub.slot), &sub);
  }

  // Codec capability: at most one bitrate per resolution per source, and
  // every published stream must exist in the source's ladder.
  for (const auto& [source, streams] : solution.publish) {
    std::set<Resolution, std::less<>> seen;
    for (const auto& stream : streams) {
      if (!seen.insert(stream.resolution).second) {
        err << source.ToString() << " publishes two streams at "
            << stream.resolution.ToString();
        return err.str();
      }
      const auto cap = caps.find(source);
      if (cap == caps.end()) {
        err << source.ToString() << " published but has no capability";
        return err.str();
      }
      const bool in_ladder = std::any_of(
          cap->second->options.begin(), cap->second->options.end(),
          [&](const StreamOption& o) {
            return o.resolution == stream.resolution &&
                   o.bitrate == stream.bitrate;
          });
      if (!in_ladder) {
        err << source.ToString() << " publishes "
            << stream.bitrate.ToString() << "@"
            << stream.resolution.ToString() << " not in its ladder";
        return err.str();
      }
    }
  }

  // Uplink: per client, sum of published bitrates <= B_u.
  std::map<ClientId, DataRate> uplink_used;
  for (const auto& [source, streams] : solution.publish) {
    for (const auto& stream : streams) {
      uplink_used[source.client] += stream.bitrate;
    }
  }
  for (const auto& [client, used] : uplink_used) {
    const DataRate budget = BudgetOr(budgets, client, true);
    if (used > budget) {
      err << client.ToString() << " uplink " << used.ToString() << " > "
          << budget.ToString();
      return err.str();
    }
  }

  // Downlink: per subscriber, sum of received bitrates <= B_d; also check
  // the subscription's resolution cap and at-most-one-stream-per-class.
  std::map<const Subscription*, int> assigned_count;
  std::map<ClientId, DataRate> downlink_used;
  for (const auto& [source, streams] : solution.publish) {
    for (const auto& stream : streams) {
      for (const auto& receiver : stream.receivers) {
        downlink_used[receiver.subscriber] += stream.bitrate;
        // Find the subscription edge this receiver corresponds to.
        const auto it = edges.find(
            std::make_tuple(receiver.subscriber, source, receiver.slot));
        const Subscription* edge = it == edges.end() ? nullptr : it->second;
        if (edge == nullptr) {
          err << receiver.subscriber.ToString() << " receives from "
              << source.ToString() << " without a subscription";
          return err.str();
        }
        if (edge->max_resolution < stream.resolution) {
          err << receiver.subscriber.ToString() << " got "
              << stream.resolution.ToString() << " above its cap "
              << edge->max_resolution.ToString() << " from "
              << source.ToString();
          return err.str();
        }
        if (++assigned_count[edge] > 1) {
          err << receiver.subscriber.ToString()
              << " got two streams for one subscription to "
              << source.ToString();
          return err.str();
        }
      }
    }
  }
  for (const auto& [client, used] : downlink_used) {
    const DataRate budget = BudgetOr(budgets, client, false);
    if (used > budget) {
      err << client.ToString() << " downlink " << used.ToString() << " > "
          << budget.ToString();
      return err.str();
    }
  }
  return std::string();
}

}  // namespace gso::core
