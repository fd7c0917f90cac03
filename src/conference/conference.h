// Full-conference simulation harness: the public entry point that wires
// user plane (clients + access links), media plane (accessing nodes +
// inter-node links) and control plane (conference node + GSO controller)
// onto one virtual-time event loop.
//
// Examples and benches build a Conference, add participants with access-
// network configs, subscribe them, run virtual time, script network
// changes (capacity steps, loss, jitter), and collect a MeetingReport.
#ifndef GSO_CONFERENCE_CONFERENCE_H_
#define GSO_CONFERENCE_CONFERENCE_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "conference/accessing_node.h"
#include "conference/client.h"
#include "conference/conference_node.h"
#include "obs/metrics.h"
#include "sim/duplex_link.h"
#include "sim/event_loop.h"

namespace gso::conference {

struct ConferenceConfig {
  ControlMode mode = ControlMode::kGso;
  int num_accessing_nodes = 1;
  // External event loop (service mode). When set, the conference schedules
  // everything on this shared loop under its own owner id — thousands of
  // conferences multiplex one virtual clock, and destroying one cancels
  // its queued closures without touching the others. The loop must outlive
  // the conference, and the host (not Conference::RunFor) drives time.
  // When null (the default) the conference owns a private loop.
  sim::EventLoop* loop = nullptr;
  ControllerConfig controller;
  // Bandwidth probing at clients and accessing nodes (ablation switch).
  bool enable_probing = true;
  // Optional observability sink. When set, the conference wires every
  // instrument site (transport, media, control planes) into this registry
  // and samples the polled series on the virtual clock every
  // `metrics_sample_period`. When null (the default) nothing is recorded
  // and the only cost is one null check per instrument site. The registry
  // must outlive the conference.
  obs::MetricsRegistry* metrics = nullptr;
  TimeDelta metrics_sample_period = TimeDelta::Millis(200);
  // Accessing-node controller watchdog (GSO mode): a node that has seen no
  // forwarding table for this long falls back to local greedy selection.
  // Zero disables. (The client-side analogue lives in
  // ClientConfig::controller_watchdog.)
  TimeDelta node_watchdog = TimeDelta::Seconds(8);
  // How long a removed participant's Client and links stay alive before
  // being destroyed (and their metric probes detached). In-flight closures
  // — link deliveries, timers racing the removal — may still reference
  // them, so anything past a few network round trips is safe; hosts of
  // long-lived churning meetings (service shards, the soak harness) set a
  // finite linger so departed state can't accumulate for hours.
  // PlusInfinity (the default) keeps every departed participant until the
  // conference dies.
  TimeDelta departed_linger = TimeDelta::PlusInfinity();
  uint64_t seed = 1;
};

struct ParticipantConfig {
  ClientConfig client;
  sim::DuplexLinkConfig access;
  int node_index = 0;
};

struct ParticipantReport {
  ClientId id;
  std::vector<ReceivedStreamStats> received;
  double voice_stall_rate = 0.0;
  double mean_framerate = 0.0;       // across received views
  double mean_video_stall_rate = 0.0;
  double mean_quality = 0.0;
  double sender_cpu_utilization = 0.0;
};

struct MeetingReport {
  std::vector<ParticipantReport> participants;  // ascending by id
  double mean_video_stall_rate = 0.0;
  double mean_voice_stall_rate = 0.0;
  double mean_framerate = 0.0;
  double mean_quality = 0.0;

  // Lookup by id (binary search; `participants` is sorted). Null if the
  // client is not part of the report.
  const ParticipantReport* participant(ClientId id) const;
};

class Conference;

// Lightweight scenario-facing handle for one participant, returned by
// Conference::AddParticipant. Bundles the id with the per-participant
// subscription and network-script calls so scenario code no longer threads
// raw ClientIds back into the Conference. Copyable; valid as long as the
// Conference is alive.
class ParticipantHandle {
 public:
  ParticipantHandle() = default;

  ClientId id() const { return id_; }
  Client& client() const { return *client_; }

  // Custom subscriptions for this participant (see SetSubscriptions).
  void Subscribe(std::vector<core::Subscription> subscriptions) const;

  // Scripted access-network changes (Table 2 / Fig. 7 scenarios).
  void SetUplinkCapacity(DataRate rate) const;
  void SetDownlinkCapacity(DataRate rate) const;
  void SetUplinkLoss(double loss) const;
  void SetDownlinkLoss(double loss) const;
  void SetUplinkJitter(TimeDelta stddev) const;
  void SetDownlinkJitter(TimeDelta stddev) const;

 private:
  friend class Conference;
  ParticipantHandle(Conference* conference, ClientId id, Client* client)
      : conference_(conference), id_(id), client_(client) {}

  Conference* conference_ = nullptr;
  ClientId id_;
  Client* client_ = nullptr;
};

class Conference {
 public:
  explicit Conference(ConferenceConfig config = {});
  ~Conference();

  Conference(const Conference&) = delete;
  Conference& operator=(const Conference&) = delete;

  // Adds a participant. Before Start() the client starts with the rest of
  // the conference; after Start() it joins mid-meeting (its media timers
  // and, when observability is on, its metric probes start immediately).
  ParticipantHandle AddParticipant(const ParticipantConfig& config);

  // Removes a participant mid-meeting: tears its state out of the control
  // plane and every accessing node, stops its client, and ends the other
  // participants' views of it. The Client object and its access link stay
  // alive (quiescent) until the Conference is destroyed — event-loop
  // closures may still reference them — but the participant disappears
  // from Report() and from future solves.
  void RemoveParticipant(ClientId client);

  // Everyone subscribes to everyone else's camera at `max_resolution`.
  void SubscribeAllCameras(Resolution max_resolution);

  // Handle for an existing participant (checked: the client must be a
  // current member). Per-participant operations — subscriptions, scripted
  // network changes — go through the handle; the Conference itself no
  // longer exposes ClientId-keyed setter duplicates.
  ParticipantHandle participant(ClientId id);

  void Start();
  // Advances virtual time. Only valid when the conference owns its loop
  // (ConferenceConfig::loop == nullptr); on a shared loop the host drives
  // time for all conferences at once.
  void RunFor(TimeDelta duration);
  // Resets the measurement window: Report() metrics cover the span from
  // the last call (or Start()) to now. Used to exclude the join/ramp-up
  // transient from steady-state QoE measurements. Also trims every
  // client's QoE history below the new window start (history there is
  // unreachable by any future Report()), so long-lived meetings that mark
  // periodically — service shards, the soak harness — hold per-client
  // QoE state proportional to the window, not the session.
  void MarkMeasurementStart();

  // --- Access ------------------------------------------------------------
  sim::EventLoop& loop() { return *loop_; }
  // Event-loop owner id of this conference. On a shared loop, hosts that
  // schedule work on behalf of the conference (fault plans, churn scripts)
  // wrap the scheduling calls in sim::EventLoop::OwnerScope(&loop, owner())
  // so those closures die with the conference.
  uint64_t owner() const { return owner_; }
  ConferenceNode& control() { return *control_; }
  Client* client(ClientId id);
  // Current member ids, ascending. Hosts that keep a durable per-conference
  // record (the orchestration service's migration directory) snapshot the
  // roster through this between slices.
  std::vector<ClientId> member_ids() const;
  AccessingNode* node(int index) { return nodes_[static_cast<size_t>(index)].get(); }
  Timestamp start_time() const { return start_time_; }
  // Raw link handles so fault plans (sim::FaultPlan) can script outages,
  // dips, and loss episodes on any path of the meeting. Null if the client
  // is unknown (or has departed).
  sim::Link* uplink(ClientId client);
  sim::Link* downlink(ClientId client);
  // Directed inter-node backbone link, or null when from == to / out of
  // range.
  sim::Link* inter_node_link(int from, int to);
  // Removed participants still held alive: awaiting their linger deadline
  // (finite departed_linger) or kept until destruction (infinite default).
  // Soak invariant: with a finite linger this is bounded by
  // churn rate x linger, independent of meeting age.
  size_t departed_count() const { return departed_.size(); }

  MeetingReport Report();

 private:
  // The ClientId-keyed mutators live behind ParticipantHandle: scenario
  // code addresses a participant through the handle returned by
  // AddParticipant() / participant(), never by threading raw ids back in.
  friend class ParticipantHandle;

  struct Participant {
    std::unique_ptr<Client> client;
    std::unique_ptr<sim::DuplexLink> access;
    int node_index = 0;
    // Current video subscriptions, for end-of-view notifications.
    std::set<std::pair<ClientId, core::SourceKind>> subscribed_views;
  };

  // Custom subscriptions for one subscriber (GSO mode; in template mode
  // the publisher set is extracted as local interest).
  void SetSubscriptions(ClientId subscriber,
                        std::vector<core::Subscription> subscriptions);

  // Scripted network changes (Table 2 / Fig. 7 scenarios), reached through
  // ParticipantHandle.
  void SetUplinkCapacity(ClientId client, DataRate rate);
  void SetDownlinkCapacity(ClientId client, DataRate rate);
  void SetUplinkLoss(ClientId client, double loss);
  void SetDownlinkLoss(ClientId client, double loss);
  void SetUplinkJitter(ClientId client, TimeDelta stddev);
  void SetDownlinkJitter(ClientId client, TimeDelta stddev);

  void WireMetrics();
  void WireParticipantMetrics(ClientId id, Participant& participant);
  // Installed as the controller's node-failure handler: re-homes every
  // participant of the dead node onto the first surviving one (fresh
  // SSRCs, rewired media paths, rebuilt interest), then forces a solve.
  void HandleNodeFailure(NodeId dead);

  // Private loop in standalone mode; null when running on an external one.
  std::unique_ptr<sim::EventLoop> owned_loop_;
  sim::EventLoop* loop_ = nullptr;  // the loop actually in use
  // Owner id on `loop_`: every closure the conference (or its components)
  // schedules is tagged with it, and the destructor cancels the lot when
  // the loop is external and outlives us.
  uint64_t owner_ = 0;
  ConferenceConfig config_;
  Rng rng_;
  std::unique_ptr<ConferenceNode> control_;
  std::vector<std::unique_ptr<AccessingNode>> nodes_;
  std::vector<std::unique_ptr<sim::Link>> inter_node_links_;
  std::map<ClientId, Participant> participants_;
  // Participants removed mid-meeting: kept alive (scheduled closures and
  // probes may still reference the Client and its links) but excluded from
  // reports, solves, and the node resolver. With a finite
  // config_.departed_linger each entry is reaped `linger` after removal;
  // with the infinite default they live until the conference dies.
  struct Departed {
    Participant participant;
    Timestamp removed_at;
  };
  void ReapDeparted();
  std::deque<Departed> departed_;
  Timestamp start_time_;
  bool started_ = false;
};

}  // namespace gso::conference

#endif  // GSO_CONFERENCE_CONFERENCE_H_
