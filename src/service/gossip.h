// Inter-shard gossip fabric: heartbeats + fleet-state summaries over
// simulated lossy control links.
//
// Each shard runs a gossip agent on the service's *control* event loop (a
// separate loop from the shards' media loops, advanced on the main thread
// between slices — see OrchestrationService::RunFor). Every period the
// agent samples its shard's load (occupancy, solve-queue depth, queue
// latency) and sends a sequenced summary to every peer over a directed
// sim::Link; receivers ack, and unacked summaries retransmit with
// exponential backoff up to a bounded retry budget. A peer not heard from
// for kSuspectTimeout (1.5 s) becomes *suspected* — the failover path in the
// service treats a majority suspicion of a dead shard as the detection
// signal, and the rebalancer steers load using the gossiped views rather
// than ground truth, so both degrade gracefully (and deterministically)
// when the control links lose packets.
//
// The links are ordinary sim::Links: fault plans can script loss episodes
// or outages on them (OrchestrationService::gossip_link), and every drop /
// retry / timeout shows up in GossipStats and the service.gossip.* series.
//
// Determinism: everything here runs on the control loop on the main
// thread; per-link loss draws come from Rngs forked off GossipConfig::seed
// in (from, to) index order at construction. Two runs with the same seed
// and the same link impairments deliver the same packets at the same
// virtual instants, independent of how the shards' slices are scheduled
// across OS threads.
#ifndef GSO_SERVICE_GOSSIP_H_
#define GSO_SERVICE_GOSSIP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "sim/event_loop.h"
#include "sim/link.h"

namespace gso::service {

struct GossipConfig {
  // Control links: low-rate control traffic on a thin, fast path.
  sim::LinkConfig link = ControlLink();
  uint64_t seed = 1;

  static sim::LinkConfig ControlLink() {
    sim::LinkConfig config;
    config.capacity = DataRate::MegabitsPerSec(10);
    config.propagation_delay = TimeDelta::Millis(5);
    config.max_queue_delay = TimeDelta::Millis(200);
    return config;
  }
};

// One agent's belief about a peer shard, refreshed by delivered summaries.
struct ShardView {
  uint64_t seq = 0;  // 0 = never heard
  uint32_t occupancy = 0;
  uint32_t queue_depth = 0;
  double queue_p99_us = 0;
  // Fabric start counts as "heard": a peer silent since Start() becomes
  // suspected only after kSuspectTimeout of virtual time has truly passed.
  Timestamp last_heard = Timestamp::Zero();
  bool suspected = false;
};

// The load sample an agent gossips; the service supplies a callback that
// reads it off the (quiescent) shard at send time.
struct ShardLoadSample {
  uint32_t occupancy = 0;
  uint32_t queue_depth = 0;
  double queue_p99_us = 0;
};

struct GossipStats {
  uint64_t summaries_sent = 0;   // first transmissions (retries excluded)
  uint64_t delivered = 0;        // summaries that reached a live peer
  uint64_t acks_delivered = 0;
  uint64_t retries = 0;          // retransmits after a missed ack
  // Summaries that expired unacked: retry budget exhausted, or (the common
  // path — backoff timers outlast the broadcast period) superseded by a
  // fresher summary while still awaiting their ack.
  uint64_t timeouts = 0;
  uint64_t suspicions = 0;       // alive->suspected transitions observed
  // Datagrams dropped unread: wrong size, unknown type, or a sender field
  // that disagrees with the link they arrived on.
  uint64_t malformed = 0;
};

// The full-mesh fabric. Owned by the service; all methods are main-thread,
// and the message/timer machinery runs when the host advances the control
// loop between slices.
class GossipFabric {
 public:
  using LoadSource = std::function<ShardLoadSample(int shard)>;

  // `loop` is the control loop; `source` reads shard load at send time.
  GossipFabric(sim::EventLoop* loop, int num_shards, GossipConfig config,
               LoadSource source);

  GossipFabric(const GossipFabric&) = delete;
  GossipFabric& operator=(const GossipFabric&) = delete;

  // Arms the periodic summary timers. Call once, before the first slice.
  void Start();

  // Crash/restart integration. A dead agent sends nothing, drops every
  // ingress packet, and forgets its pending retransmits; on revival its
  // peer clocks reset so it does not instantly suspect the whole fleet.
  void SetAgentAlive(int shard, bool alive);

  // Agent `observer`'s current belief about `peer` (suspicion updated
  // lazily against the control clock at read time).
  const ShardView& view(int observer, int peer);
  // Number of live agents currently suspecting `shard`.
  int SuspectCount(int shard);
  // Live agents other than `shard` itself (the suspicion quorum base).
  int AliveAgents() const;

  // Directed control link from shard `from` to shard `to`; null when
  // from == to. Fault plans script loss/outage episodes here.
  sim::Link* link(int from, int to);

  const GossipStats& stats() const { return stats_; }
  // Control packets (summaries + acks) the links dropped — loss episodes,
  // outages, queue overflow. Complements stats(): a retry implies a drop
  // somewhere, but drops on the ack path only show up here.
  uint64_t PacketsDropped() const;

 private:
  struct Pending {
    uint64_t seq = 0;   // 0 = nothing outstanding
    int retries = 0;
    std::vector<uint8_t> payload;
  };

  struct Agent {
    bool alive = true;
    uint64_t next_seq = 1;
    std::vector<ShardView> views;     // indexed by peer
    std::vector<Pending> pending;     // indexed by peer
  };

  void Broadcast(int from);
  void SendSummary(int from, int to, const std::vector<uint8_t>& payload,
                   uint64_t seq);
  void ArmRetry(int from, int to, uint64_t seq, int attempt);
  void HandlePacket(int from, int to, std::span<const uint8_t> data);
  void RefreshSuspicion(int observer, int peer);

  sim::EventLoop* loop_;
  int num_shards_;
  GossipConfig config_;
  LoadSource source_;
  std::vector<Agent> agents_;
  // links_[from * num_shards + to]; null on the diagonal.
  std::vector<std::unique_ptr<sim::Link>> links_;
  GossipStats stats_;
};

}  // namespace gso::service

#endif  // GSO_SERVICE_GOSSIP_H_
