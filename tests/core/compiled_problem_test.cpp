// Differential test of CompiledProblem::CompileFrom against a frozen copy
// of the compilation it replaced, which interned two client ids per
// subscription and binary-searched every edge's subscriber and source
// three times. The current compile interns a subscriber once per run of
// equal subscribers and an edge's source client only when the source is
// unknown; it must yield exactly the same compiled form.
//
// The seeded instances cover shapes testutil::RandomProblem never makes:
// non-contiguous subscriber runs, edges to unknown sources whose client
// appears nowhere else, self-subscriptions, duplicate edges, duplicate
// budgets and capabilities (the last one wins), screen sources, and clients
// that appear only in budgets. Every instance is compiled twice: fresh, and
// into an object that last held a different instance, so stale scratch
// from the previous compile would show up too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/interner.h"
#include "common/rng.h"
#include "core/compiled_problem.h"
#include "core/types.h"
#include "solution_testutil.h"

namespace gso::core {
namespace {

// ---- Frozen copy of the previous CompileFrom ----
struct FrozenCompiled {
  DenseInterner<ClientId> clients;
  DenseInterner<SourceId> source_index;
  std::vector<DataRate> uplink;
  std::vector<DataRate> downlink;
  std::vector<CompiledSource> sources;
  std::vector<ClientId> subscriber_ids;
  std::vector<int> subscriber_client;
  std::vector<CompiledSubscription> subscriptions;
  std::vector<size_t> subscription_offset;
  std::vector<std::vector<int>> watchers;
  int total_merge_slots = 0;
};

FrozenCompiled FrozenCompile(const OrchestrationProblem& problem) {
  FrozenCompiled out;
  {
    std::vector<ClientId> ids;
    for (const auto& b : problem.budgets) ids.push_back(b.client);
    for (const auto& c : problem.capabilities) ids.push_back(c.source.client);
    for (const auto& s : problem.subscriptions) {
      ids.push_back(s.subscriber);
      ids.push_back(s.source.client);
    }
    out.clients.Rebuild(ids);
  }
  const size_t n_clients = static_cast<size_t>(out.clients.size());
  out.uplink.assign(n_clients, DataRate::PlusInfinity());
  out.downlink.assign(n_clients, DataRate::PlusInfinity());
  for (const auto& b : problem.budgets) {
    const int idx = out.clients.IndexOf(b.client);
    out.uplink[static_cast<size_t>(idx)] = b.uplink;
    out.downlink[static_cast<size_t>(idx)] = b.downlink;
  }
  {
    std::vector<SourceId> ids;
    for (const auto& c : problem.capabilities) ids.push_back(c.source);
    out.source_index.Rebuild(ids);
  }
  out.sources.resize(static_cast<size_t>(out.source_index.size()));
  for (const auto& cap : problem.capabilities) {
    auto& source =
        out.sources[static_cast<size_t>(out.source_index.IndexOf(cap.source))];
    source.id = cap.source;
    source.owner = out.clients.IndexOf(cap.source.client);
    source.ladder = cap.options;
  }
  int slot_offset = 0;
  for (auto& source : out.sources) {
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
  out.total_merge_slots = slot_offset;

  std::vector<int> edge_count(n_clients, 0);
  for (const auto& sub : problem.subscriptions) {
    if (sub.subscriber == sub.source.client) continue;
    if (out.source_index.IndexOf(sub.source) < 0) continue;
    ++edge_count[static_cast<size_t>(out.clients.IndexOf(sub.subscriber))];
  }
  out.subscription_offset.push_back(0);
  std::vector<int> sub_of_client(n_clients, -1);
  size_t total_edges = 0;
  for (size_t c = 0; c < n_clients; ++c) {
    if (edge_count[c] == 0) continue;
    sub_of_client[c] = static_cast<int>(out.subscriber_ids.size());
    out.subscriber_ids.push_back(out.clients.id(static_cast<int>(c)));
    out.subscriber_client.push_back(static_cast<int>(c));
    total_edges += static_cast<size_t>(edge_count[c]);
    out.subscription_offset.push_back(total_edges);
  }
  out.subscriptions.resize(total_edges);
  std::vector<size_t> cursor(out.subscription_offset.begin(),
                             out.subscription_offset.end() - 1);
  for (const auto& sub : problem.subscriptions) {
    if (sub.subscriber == sub.source.client) continue;
    const int source = out.source_index.IndexOf(sub.source);
    if (source < 0) continue;
    const int sub_idx = sub_of_client[static_cast<size_t>(
        out.clients.IndexOf(sub.subscriber))];
    out.subscriptions[cursor[static_cast<size_t>(sub_idx)]++] =
        CompiledSubscription{source, sub.max_resolution, sub.priority,
                             sub.slot, &sub};
  }

  out.watchers.resize(out.sources.size());
  for (size_t sub = 0; sub < out.subscriber_ids.size(); ++sub) {
    for (size_t e = out.subscription_offset[sub];
         e < out.subscription_offset[sub + 1]; ++e) {
      auto& w = out.watchers[static_cast<size_t>(out.subscriptions[e].source)];
      if (w.empty() || w.back() != static_cast<int>(sub)) {
        w.push_back(static_cast<int>(sub));
      }
    }
  }
  return out;
}

// ---- Seeded instances ----

// Clients 1..8 may have budgets and sources and may subscribe; clients
// 20..22 only ever appear as the client of a source with no capability
// (so only the edge interns them); clients 30..31 appear only in budgets.
OrchestrationProblem IrregularProblem(uint64_t seed) {
  Rng rng(seed);
  OrchestrationProblem problem;
  const auto ladder = [&](int levels) {
    return BuildLadder({{kResolution720p, DataRate::KilobitsPerSec(900),
                         DataRate::KilobitsPerSec(1800), levels},
                        {kResolution360p, DataRate::KilobitsPerSec(350),
                         DataRate::KilobitsPerSec(800), levels},
                        {kResolution180p, DataRate::KilobitsPerSec(80),
                         DataRate::KilobitsPerSec(300), levels}});
  };
  const auto budget = [&](uint32_t client) {
    return ClientBudget{ClientId(client),
                        DataRate::KilobitsPerSec(rng.UniformInt(50, 8000)),
                        DataRate::KilobitsPerSec(rng.UniformInt(50, 12000))};
  };
  for (uint32_t c = 1; c <= 8; ++c) {
    if (rng.Bernoulli(0.8)) problem.budgets.push_back(budget(c));
  }
  problem.budgets.push_back(budget(30));
  if (rng.Bernoulli(0.5)) problem.budgets.push_back(budget(31));
  // A repeated budget: the later entry wins.
  if (!problem.budgets.empty() && rng.Bernoulli(0.7)) {
    problem.budgets.push_back(budget(problem.budgets.front().client.value()));
  }
  testutil::Shuffle(problem.budgets, 0, rng);

  for (uint32_t c = 1; c <= 8; ++c) {
    if (rng.Bernoulli(0.75)) {
      problem.capabilities.push_back(
          {{ClientId(c), SourceKind::kCamera}, ladder(rng.UniformInt(1, 4))});
    }
    if (rng.Bernoulli(0.25)) {
      problem.capabilities.push_back(
          {{ClientId(c), SourceKind::kScreen}, ladder(rng.UniformInt(1, 3))});
    }
  }
  // A repeated capability with a different ladder: the later one wins.
  if (!problem.capabilities.empty()) {
    SourceCapability repeat = problem.capabilities[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int>(problem.capabilities.size()) - 1))];
    repeat.options = ladder(rng.UniformInt(1, 5));
    if (rng.Bernoulli(0.5)) {
      repeat.options.erase(repeat.options.begin());
    }
    problem.capabilities.push_back(repeat);
  }
  testutil::Shuffle(problem.capabilities, 0, rng);

  const Resolution caps[] = {kResolution180p, kResolution360p,
                             kResolution720p};
  // Runs of one to four edges per subscriber; a subscriber may come back
  // for a later run (A, B, A).
  const int runs = static_cast<int>(rng.UniformInt(0, 20));
  for (int run = 0; run < runs; ++run) {
    const ClientId subscriber(static_cast<uint32_t>(rng.UniformInt(1, 8)));
    const int edges = static_cast<int>(rng.UniformInt(1, 4));
    for (int e = 0; e < edges; ++e) {
      Subscription sub;
      sub.subscriber = subscriber;
      const double kind = rng.NextDouble();
      if (kind < 0.15) {
        // An unknown source whose client appears nowhere else.
        sub.source = {ClientId(static_cast<uint32_t>(rng.UniformInt(20, 22))),
                      SourceKind::kCamera};
      } else if (kind < 0.25) {
        sub.source = {sub.subscriber, SourceKind::kCamera};  // self
      } else {
        sub.source = {ClientId(static_cast<uint32_t>(rng.UniformInt(1, 8))),
                      rng.Bernoulli(0.2) ? SourceKind::kScreen
                                         : SourceKind::kCamera};
      }
      sub.max_resolution = caps[rng.UniformInt(0, 2)];
      sub.priority = rng.Bernoulli(0.2) ? 3.0 : 1.0;
      sub.slot = rng.Bernoulli(0.2) ? 1 : 0;
      problem.subscriptions.push_back(sub);
      if (rng.Bernoulli(0.1)) problem.subscriptions.push_back(sub);  // twice
    }
  }
  // Sometimes one edge list in fully random order instead.
  if (rng.Bernoulli(0.25)) testutil::Shuffle(problem.subscriptions, 0, rng);
  return problem;
}

void ExpectSameCompiledForm(const CompiledProblem& got,
                            const FrozenCompiled& want,
                            const OrchestrationProblem& problem) {
  ASSERT_EQ(got.num_clients(), want.clients.size());
  for (int c = 0; c < got.num_clients(); ++c) {
    EXPECT_EQ(got.client_id(c), want.clients.id(c)) << "client " << c;
    EXPECT_EQ(got.uplink(c), want.uplink[static_cast<size_t>(c)]);
    EXPECT_EQ(got.downlink(c), want.downlink[static_cast<size_t>(c)]);
  }

  ASSERT_EQ(got.num_sources(), static_cast<int>(want.sources.size()));
  EXPECT_EQ(got.total_merge_slots(), want.total_merge_slots);
  for (int s = 0; s < got.num_sources(); ++s) {
    const CompiledSource& a = got.sources()[static_cast<size_t>(s)];
    const CompiledSource& b = want.sources[static_cast<size_t>(s)];
    EXPECT_TRUE(a.id == b.id) << "source " << s;
    EXPECT_EQ(a.owner, b.owner) << "source " << s;
    EXPECT_EQ(a.ladder, b.ladder) << "source " << s;
    EXPECT_EQ(a.resolutions, b.resolutions) << "source " << s;
    EXPECT_EQ(a.slot_offset, b.slot_offset) << "source " << s;
    EXPECT_EQ(got.SourceIndexOf(a.id), s);
    EXPECT_EQ(got.watchers(s), want.watchers[static_cast<size_t>(s)])
        << "watchers of source " << s;
  }
  for (const auto& sub : problem.subscriptions) {
    EXPECT_EQ(got.SourceIndexOf(sub.source),
              want.source_index.IndexOf(sub.source));
    const auto at = std::find(want.subscriber_ids.begin(),
                              want.subscriber_ids.end(), sub.subscriber);
    EXPECT_EQ(got.SubscriberIndexOf(sub.subscriber),
              at == want.subscriber_ids.end()
                  ? -1
                  : static_cast<int>(at - want.subscriber_ids.begin()));
  }

  ASSERT_EQ(got.subscriber_ids(), want.subscriber_ids);
  ASSERT_EQ(got.num_subscribers(), static_cast<int>(want.subscriber_ids.size()));
  for (int sub = 0; sub < got.num_subscribers(); ++sub) {
    const size_t u = static_cast<size_t>(sub);
    EXPECT_EQ(got.subscriber_id(sub), want.subscriber_ids[u]);
    EXPECT_EQ(got.subscriber_downlink(sub),
              want.downlink[static_cast<size_t>(want.subscriber_client[u])]);
    const size_t first = want.subscription_offset[u];
    const size_t count = want.subscription_offset[u + 1] - first;
    ASSERT_EQ(got.subscription_count(sub), static_cast<int>(count));
    ASSERT_EQ(got.subscriptions_end(sub) - got.subscriptions_begin(sub),
              static_cast<std::ptrdiff_t>(count));
    for (size_t k = 0; k < count; ++k) {
      const CompiledSubscription& a = got.subscriptions_begin(sub)[k];
      const CompiledSubscription& b = want.subscriptions[first + k];
      EXPECT_EQ(a.source, b.source) << "subscriber " << sub << " edge " << k;
      EXPECT_TRUE(a.max_resolution == b.max_resolution);
      EXPECT_EQ(a.priority, b.priority);
      EXPECT_EQ(a.slot, b.slot);
      EXPECT_EQ(a.edge, b.edge) << "subscriber " << sub << " edge " << k;
    }
  }
}

TEST(CompiledProblemDifferential, MatchesFrozenCompileOnIrregularInstances) {
  CompiledProblem reused;
  int unknown_only_clients = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const OrchestrationProblem problem = IrregularProblem(seed);
    const FrozenCompiled want = FrozenCompile(problem);
    for (int c = 0; c < want.clients.size(); ++c) {
      if (want.clients.id(c).value() >= 20 &&
          want.clients.id(c).value() <= 22) {
        ++unknown_only_clients;
      }
    }

    ExpectSameCompiledForm(CompiledProblem::Compile(problem), want, problem);
    reused.CompileFrom(problem);
    ExpectSameCompiledForm(reused, want, problem);
    if (testing::Test::HasFailure()) return;  // first divergence only
  }
  // The instances did exercise a client that only an edge to an unknown
  // source interns.
  EXPECT_GT(unknown_only_clients, 0);
}

TEST(CompiledProblemDifferential, EmptyAndSubscriptionOnlyProblems) {
  CompiledProblem reused;
  reused.CompileFrom(IrregularProblem(7));

  OrchestrationProblem empty;
  reused.CompileFrom(empty);
  ExpectSameCompiledForm(reused, FrozenCompile(empty), empty);

  // Only edges, every one to an unknown source: the clients are interned
  // (num_clients sizes the per-publisher buckets) but nobody subscribes.
  OrchestrationProblem edges_only;
  edges_only.subscriptions.push_back(
      {ClientId(2), {ClientId(9), SourceKind::kCamera}, kResolution720p, 1.0,
       0});
  edges_only.subscriptions.push_back(
      {ClientId(1), {ClientId(9), SourceKind::kScreen}, kResolution360p, 1.0,
       1});
  edges_only.subscriptions.push_back(
      {ClientId(2), {ClientId(5), SourceKind::kCamera}, kResolution180p, 1.0,
       0});
  reused.CompileFrom(edges_only);
  ExpectSameCompiledForm(reused, FrozenCompile(edges_only), edges_only);
  EXPECT_EQ(reused.num_clients(), 4);
  EXPECT_EQ(reused.num_subscribers(), 0);
}

}  // namespace
}  // namespace gso::core
