#include "conference/conference.h"

#include <algorithm>

#include "common/logging.h"

namespace gso::conference {

const ParticipantReport* MeetingReport::participant(ClientId id) const {
  const auto it = std::lower_bound(
      participants.begin(), participants.end(), id,
      [](const ParticipantReport& report, ClientId key) {
        return report.id < key;
      });
  if (it == participants.end() || !(it->id == id)) return nullptr;
  return &*it;
}

void ParticipantHandle::Subscribe(
    std::vector<core::Subscription> subscriptions) const {
  conference_->SetSubscriptions(id_, std::move(subscriptions));
}
void ParticipantHandle::SetUplinkCapacity(DataRate rate) const {
  conference_->SetUplinkCapacity(id_, rate);
}
void ParticipantHandle::SetDownlinkCapacity(DataRate rate) const {
  conference_->SetDownlinkCapacity(id_, rate);
}
void ParticipantHandle::SetUplinkLoss(double loss) const {
  conference_->SetUplinkLoss(id_, loss);
}
void ParticipantHandle::SetDownlinkLoss(double loss) const {
  conference_->SetDownlinkLoss(id_, loss);
}
void ParticipantHandle::SetUplinkJitter(TimeDelta stddev) const {
  conference_->SetUplinkJitter(id_, stddev);
}
void ParticipantHandle::SetDownlinkJitter(TimeDelta stddev) const {
  conference_->SetDownlinkJitter(id_, stddev);
}

Conference::Conference(ConferenceConfig config)
    : owned_loop_(config.loop == nullptr ? std::make_unique<sim::EventLoop>()
                                         : nullptr),
      loop_(config.loop != nullptr ? config.loop : owned_loop_.get()),
      owner_(loop_->NewOwner()),
      config_(config),
      rng_(config.seed) {
  const sim::EventLoop::OwnerScope scope(loop_, owner_);
  control_ = std::make_unique<ConferenceNode>(loop_, config_.controller);
  GSO_CHECK(config_.num_accessing_nodes >= 1);
  for (int i = 0; i < config_.num_accessing_nodes; ++i) {
    auto node = std::make_unique<AccessingNode>(
        loop_, NodeId(static_cast<uint32_t>(i)), config_.mode,
        control_->directory(), rng_.Fork());
    node->SetControlPlane(control_.get());
    node->SetProbingEnabled(config_.enable_probing);
    node->SetControllerWatchdog(config_.node_watchdog);
    nodes_.push_back(std::move(node));
  }
  control_->SetNodeFailureHandler(
      [this](NodeId dead) { HandleNodeFailure(dead); });
  // Full-mesh inter-node links over a well-provisioned backbone.
  for (int i = 0; i < config_.num_accessing_nodes; ++i) {
    for (int j = 0; j < config_.num_accessing_nodes; ++j) {
      if (i == j) continue;
      auto link = std::make_unique<sim::Link>(
          loop_, sim::LinkConfig::Backbone(), rng_.Fork(),
          "node" + std::to_string(i) + "->node" + std::to_string(j));
      AccessingNode* from = nodes_[static_cast<size_t>(i)].get();
      AccessingNode* to = nodes_[static_cast<size_t>(j)].get();
      link->SetSink([to, from_id = from->id()](const sim::Packet& packet) {
        to->OnPeerPacket(from_id, packet);
      });
      from->ConnectPeer(to, link.get());
      inter_node_links_.push_back(std::move(link));
    }
  }
  // Node resolver for cross-node control relay.
  for (auto& node : nodes_) {
    node->SetNodeResolver([this](ClientId client) -> AccessingNode* {
      const auto it = participants_.find(client);
      if (it == participants_.end()) return nullptr;
      return nodes_[static_cast<size_t>(it->second.node_index)].get();
    });
  }
}

Conference::~Conference() {
  // On a shared loop the queue outlives us: closures referencing this
  // conference's clients, links, and timers must never run again.
  if (owned_loop_ == nullptr) loop_->Cancel(owner_);
}

ParticipantHandle Conference::AddParticipant(const ParticipantConfig& config) {
  const sim::EventLoop::OwnerScope scope(loop_, owner_);
  GSO_CHECK(config.node_index >= 0 &&
            config.node_index < config_.num_accessing_nodes);
  auto client_config = config.client;
  client_config.mode = config_.mode;  // conference-wide control mode
  client_config.enable_probing = config_.enable_probing;

  Participant participant;
  participant.node_index = config.node_index;
  participant.client =
      std::make_unique<Client>(loop_, client_config, rng_.Fork());
  participant.access = std::make_unique<sim::DuplexLink>(
      loop_, config.access, &rng_,
      "client" + std::to_string(client_config.id.value()));

  Client* client = participant.client.get();
  AccessingNode* node = nodes_[static_cast<size_t>(config.node_index)].get();

  // Wire media paths: uplink client -> node, downlink node -> client.
  participant.access->uplink().SetSink(
      [node, id = client->id()](const sim::Packet& packet) {
        node->OnClientPacket(id, packet);
      });
  participant.access->downlink().SetSink(
      [client](const sim::Packet& packet) {
        client->OnPacketFromNode(packet);
      });
  client->SetUplink(&participant.access->uplink());
  client->SetDirectory(control_->directory());
  node->AttachClient(client, &participant.access->downlink());

  const bool joined = control_->Join(client, node);
  GSO_CHECK(joined);

  auto& stored = participants_[client->id()];
  stored = std::move(participant);
  if (started_) {
    // Mid-meeting join: the rest of the conference is already running.
    client->Start();
    if (config_.metrics != nullptr) {
      WireParticipantMetrics(client->id(), stored);
    }
  }
  return ParticipantHandle(this, client->id(), client);
}

ParticipantHandle Conference::participant(ClientId id) {
  const auto it = participants_.find(id);
  GSO_CHECK(it != participants_.end());
  return ParticipantHandle(this, id, it->second.client.get());
}

void Conference::RemoveParticipant(ClientId client) {
  const sim::EventLoop::OwnerScope scope(loop_, owner_);
  const auto it = participants_.find(client);
  if (it == participants_.end()) return;

  // Control plane first: prunes subscriptions and directory state and
  // tears the client out of every accessing node's forwarding tables.
  control_->Leave(client);
  it->second.client->Stop();

  // Other participants' views of the departed publisher end here — a view
  // whose publisher left must not keep accruing stall time.
  for (auto& [other_id, other] : participants_) {
    if (other_id == client) continue;
    for (auto view = other.subscribed_views.begin();
         view != other.subscribed_views.end();) {
      if (view->first == client) {
        other.client->OnViewEnded(view->first, view->second);
        view = other.subscribed_views.erase(view);
      } else {
        ++view;
      }
    }
  }

  departed_.push_back(Departed{std::move(it->second), loop_->Now()});
  participants_.erase(it);
  if (config_.departed_linger.IsFinite()) {
    loop_->After(config_.departed_linger, [this] { ReapDeparted(); });
  }
}

void Conference::ReapDeparted() {
  // Entries are in removal order, so the expired ones form a prefix.
  while (!departed_.empty() &&
         loop_->Now() >= departed_.front().removed_at + config_.departed_linger) {
    Participant& reaped = departed_.front().participant;
    if (config_.metrics != nullptr) {
      config_.metrics->RemoveProbes(reaped.client.get());
    }
    departed_.pop_front();
  }
}

void Conference::HandleNodeFailure(NodeId dead) {
  const sim::EventLoop::OwnerScope scope(loop_, owner_);
  // First surviving node takes the orphans (deterministic choice).
  AccessingNode* survivor = nullptr;
  int survivor_index = -1;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->id() != dead && nodes_[i]->alive()) {
      survivor = nodes_[i].get();
      survivor_index = static_cast<int>(i);
      break;
    }
  }
  if (survivor == nullptr) return;  // total outage: nowhere to re-home

  // NodeId(i) == index by construction (see the constructor).
  const int dead_index = static_cast<int>(dead.value());
  std::vector<ClientId> victims;
  for (const auto& [id, participant] : participants_) {
    if (participant.node_index == dead_index) victims.push_back(id);
  }

  for (ClientId id : victims) {
    Participant& participant = participants_.at(id);
    Client* client = participant.client.get();
    // Fresh SSRCs from the monotonic allocator: no collision with anything
    // a surviving table or in-flight closure still names.
    const std::vector<Ssrc> old_ssrcs = control_->ReHome(id, survivor);
    // Purge the old streams and the stale attachment from every node (the
    // dead one included — its attachment must not resurrect on restart).
    for (auto& node : nodes_) node->OnClientLeft(id, old_ssrcs);
    // Rewire the media path: uplink now terminates at the survivor.
    participant.access->uplink().SetSink(
        [survivor, id](const sim::Packet& packet) {
          survivor->OnClientPacket(id, packet);
        });
    survivor->AttachClient(client, &participant.access->downlink());
    client->ResetDownlinkFeedback();
    participant.node_index = survivor_index;
    // Subscribers behind the survivor need a decode anchor on the new
    // SSRCs right away, not at the next periodic keyframe.
    client->ForceKeyframes();
  }

  // OnClientLeft stripped the victims from every client's local-interest
  // and selection state; rebuild interest from the subscription records so
  // degraded-mode selection still sees the full mesh.
  for (const auto& [id, participant] : participants_) {
    std::vector<ClientId> interest;
    for (const auto& view : participant.subscribed_views) {
      if (view.second == core::SourceKind::kCamera) {
        interest.push_back(view.first);
      }
    }
    nodes_[static_cast<size_t>(participant.node_index)]->SetLocalInterest(
        id, std::move(interest));
  }
  // Re-coordinate immediately: forwarding tables referencing the dead
  // node's streams are already purged; the new solve rebuilds them.
  control_->OrchestrateNow();
}

void Conference::SubscribeAllCameras(Resolution max_resolution) {
  for (const auto& [subscriber_id, _] : participants_) {
    std::vector<core::Subscription> subs;
    for (const auto& [publisher_id, __] : participants_) {
      if (publisher_id == subscriber_id) continue;
      subs.push_back({subscriber_id,
                      {publisher_id, core::SourceKind::kCamera},
                      max_resolution,
                      1.0,
                      0});
    }
    SetSubscriptions(subscriber_id, std::move(subs));
  }
}

void Conference::SetSubscriptions(
    ClientId subscriber, std::vector<core::Subscription> subscriptions) {
  const sim::EventLoop::OwnerScope scope(loop_, owner_);
  // Template mode: the SFU needs the local interest list for its greedy
  // selector; GSO mode feeds the controller.
  const auto it = participants_.find(subscriber);
  GSO_CHECK(it != participants_.end());
  std::vector<ClientId> interest;
  for (const auto& sub : subscriptions) {
    if (sub.source.kind == core::SourceKind::kCamera) {
      interest.push_back(sub.source.client);
    }
  }
  nodes_[static_cast<size_t>(it->second.node_index)]->SetLocalInterest(
      subscriber, std::move(interest));
  // Views no longer subscribed stop accruing QoE on the client.
  std::set<std::pair<ClientId, core::SourceKind>> now_subscribed;
  for (const auto& sub : subscriptions) {
    now_subscribed.insert({sub.source.client, sub.source.kind});
  }
  for (const auto& old_view : it->second.subscribed_views) {
    if (!now_subscribed.count(old_view)) {
      it->second.client->OnViewEnded(old_view.first, old_view.second);
    }
  }
  for (const auto& view : now_subscribed) {
    if (!it->second.subscribed_views.count(view)) {
      it->second.client->OnViewResumed(view.first, view.second);
    }
  }
  it->second.subscribed_views = std::move(now_subscribed);
  control_->SetSubscriptions(subscriber, std::move(subscriptions));
}

void Conference::MarkMeasurementStart() {
  start_time_ = loop_->Now();
  // Everything below the new window start is unreachable by Report();
  // drop it so per-client QoE state tracks the window, not the session.
  for (auto& [_, participant] : participants_) {
    participant.client->TrimQoeHistoryBefore(start_time_);
  }
}

void Conference::Start() {
  const sim::EventLoop::OwnerScope scope(loop_, owner_);
  GSO_CHECK(!started_);
  started_ = true;
  start_time_ = loop_->Now();
  for (auto& node : nodes_) node->Start();
  for (auto& [_, participant] : participants_) participant.client->Start();
  if (config_.mode == ControlMode::kGso) control_->Start();
  if (config_.metrics != nullptr) WireMetrics();
}

// Interns one series per (metric, participant) and registers the polled
// probes; runs once at Start() so the per-sample path never touches the
// intern map. Series names follow <plane>.<component>.<metric> with the
// unit kept in the descriptor, not the name.
void Conference::WireMetrics() {
  obs::MetricsRegistry* registry = config_.metrics;
  control_->SetMetrics(registry);

  // Node-level GTBR retransmissions (the RTCP-tick retry loop below the
  // controller's pending-config layer).
  for (auto& node : nodes_) {
    AccessingNode* raw = node.get();
    registry->AddProbe(
        registry->Get("control.gtbr.node_retransmissions",
                      obs::MetricKind::kCounter, "messages",
                      obs::LabelNode(raw->id().value())),
        [raw] { return static_cast<double>(raw->gtbr_retransmissions()); });
    registry->AddProbe(
        registry->Get("gso.robustness.node_degraded", obs::MetricKind::kGauge,
                      "bool", obs::LabelNode(raw->id().value())),
        [raw] { return raw->degraded() ? 1.0 : 0.0; });
  }

  for (auto& [id, participant] : participants_) {
    WireParticipantMetrics(id, participant);
  }

  loop_->Every(config_.metrics_sample_period, [this] {
    config_.metrics->SampleProbes(loop_->Now());
    return true;
  });
}

void Conference::WireParticipantMetrics(ClientId id,
                                        Participant& participant) {
  obs::MetricsRegistry* registry = config_.metrics;
  using obs::MetricKind;
  {
    Client* client = participant.client.get();
    const obs::Labels labels = obs::LabelClient(id.value());
    // Tagged with the client: when a departed participant is reaped
    // (ConferenceConfig::departed_linger), RemoveProbes(client) detaches
    // these before the Client is destroyed.
    const auto add_probe = [registry, client](obs::Metric* metric,
                                              std::function<double()> fn) {
      registry->AddProbe(metric, std::move(fn), client);
    };

    add_probe(
        registry->Get("transport.bwe.target", MetricKind::kGauge, "bps",
                      labels),
        [client] { return static_cast<double>(client->uplink_estimate().bps()); });
    add_probe(
        registry->Get("transport.bwe.loss", MetricKind::kGauge, "fraction",
                      labels),
        [client] { return client->uplink_bwe().loss_fraction(); });
    add_probe(
        registry->Get("transport.pacer.queue", MetricKind::kGauge, "packets",
                      labels),
        [client] { return static_cast<double>(client->pacer().queue_size()); });
    add_probe(
        registry->Get("transport.pacer.queue_delay", MetricKind::kGauge, "us",
                      labels),
        [client] {
          return static_cast<double>(client->pacer().QueueDelay().us());
        });
    add_probe(
        registry->Get("media.encoder.target", MetricKind::kGauge, "bps",
                      labels),
        [client] {
          return static_cast<double>(client->current_publish_rate().bps());
        });
    add_probe(
        registry->Get("media.jitter.frames_decoded", MetricKind::kCounter,
                      "frames", labels),
        [client] { return static_cast<double>(client->TotalFramesDecoded()); });
    add_probe(
        registry->Get("media.jitter.frames_dropped", MetricKind::kCounter,
                      "frames", labels),
        [client] { return static_cast<double>(client->TotalFramesDropped()); });
    add_probe(
        registry->Get("media.stall.intervals", MetricKind::kCounter,
                      "intervals", labels),
        [client] {
          return static_cast<double>(client->TotalStalledIntervals());
        });
    add_probe(
        registry->Get("media.receive.rate", MetricKind::kGauge, "bps", labels),
        [this, client] {
          return static_cast<double>(
              client->TotalReceiveRate(loop_->Now()).bps());
        });
    add_probe(
        registry->Get("control.gtbr.received", MetricKind::kCounter,
                      "messages", labels),
        [client] {
          return static_cast<double>(client->gtbr_messages_received());
        });
    add_probe(
        registry->Get("gso.robustness.client_degraded", MetricKind::kGauge,
                      "bool", labels),
        [client] { return client->degraded() ? 1.0 : 0.0; });
    add_probe(
        registry->Get("gso.robustness.time_in_degraded", MetricKind::kCounter,
                      "us", labels),
        [this, client] {
          return static_cast<double>(
              client->TimeInDegraded(loop_->Now()).us());
        });
  }
}

void Conference::RunFor(TimeDelta duration) {
  // On a shared loop the host drives time: a single conference advancing
  // the clock would silently advance every other conference too.
  GSO_CHECK(owned_loop_ != nullptr);
  loop_->RunFor(duration);
}

Client* Conference::client(ClientId id) {
  const auto it = participants_.find(id);
  return it == participants_.end() ? nullptr : it->second.client.get();
}

std::vector<ClientId> Conference::member_ids() const {
  std::vector<ClientId> ids;
  ids.reserve(participants_.size());
  for (const auto& [id, _] : participants_) ids.push_back(id);
  return ids;  // std::map iteration is already ascending
}

sim::Link* Conference::uplink(ClientId client) {
  const auto it = participants_.find(client);
  return it == participants_.end() ? nullptr : &it->second.access->uplink();
}

sim::Link* Conference::downlink(ClientId client) {
  const auto it = participants_.find(client);
  return it == participants_.end() ? nullptr : &it->second.access->downlink();
}

sim::Link* Conference::inter_node_link(int from, int to) {
  const int n = config_.num_accessing_nodes;
  if (from == to || from < 0 || to < 0 || from >= n || to >= n) {
    return nullptr;
  }
  // Links were created in (i, j) order skipping i == j, so the directed
  // (from, to) pair lives at a dense, computable index.
  const int index = from * (n - 1) + (to < from ? to : to - 1);
  return inter_node_links_[static_cast<size_t>(index)].get();
}

// The scripted setters run under the conference's owner: capacity changes
// can schedule link-drain wakeups, which must die with the conference on a
// shared loop.
void Conference::SetUplinkCapacity(ClientId client, DataRate rate) {
  const sim::EventLoop::OwnerScope scope(loop_, owner_);
  participants_.at(client).access->uplink().SetCapacity(rate);
}
void Conference::SetDownlinkCapacity(ClientId client, DataRate rate) {
  const sim::EventLoop::OwnerScope scope(loop_, owner_);
  participants_.at(client).access->downlink().SetCapacity(rate);
}
void Conference::SetUplinkLoss(ClientId client, double loss) {
  const sim::EventLoop::OwnerScope scope(loop_, owner_);
  participants_.at(client).access->uplink().SetLossRate(loss);
}
void Conference::SetDownlinkLoss(ClientId client, double loss) {
  const sim::EventLoop::OwnerScope scope(loop_, owner_);
  participants_.at(client).access->downlink().SetLossRate(loss);
}
void Conference::SetUplinkJitter(ClientId client, TimeDelta stddev) {
  const sim::EventLoop::OwnerScope scope(loop_, owner_);
  participants_.at(client).access->uplink().SetJitter(stddev);
}
void Conference::SetDownlinkJitter(ClientId client, TimeDelta stddev) {
  const sim::EventLoop::OwnerScope scope(loop_, owner_);
  participants_.at(client).access->downlink().SetJitter(stddev);
}

MeetingReport Conference::Report() {
  MeetingReport report;
  const Timestamp end = loop_->Now();
  RunningStats all_stall;
  RunningStats all_voice;
  RunningStats all_fps;
  RunningStats all_quality;

  for (auto& [id, participant] : participants_) {
    ParticipantReport pr;
    pr.id = id;
    pr.received = participant.client->ReceiveReport(start_time_, end);
    pr.voice_stall_rate =
        participant.client->VoiceStallRate(start_time_, end);
    RunningStats fps, stall, quality;
    for (const auto& stream : pr.received) {
      fps.Add(stream.average_framerate);
      stall.Add(stream.stall_rate);
      quality.Add(stream.average_quality);
    }
    pr.mean_framerate = fps.mean();
    pr.mean_video_stall_rate = stall.mean();
    pr.mean_quality = quality.mean();
    pr.sender_cpu_utilization =
        participant.client->cpu().Utilization(end - start_time_);

    all_stall.Add(pr.mean_video_stall_rate);
    all_voice.Add(pr.voice_stall_rate);
    if (fps.count() > 0) all_fps.Add(pr.mean_framerate);
    if (quality.count() > 0) all_quality.Add(pr.mean_quality);
    report.participants.push_back(std::move(pr));
  }
  report.mean_video_stall_rate = all_stall.mean();
  report.mean_voice_stall_rate = all_voice.mean();
  report.mean_framerate = all_fps.mean();
  report.mean_quality = all_quality.mean();
  return report;
}

}  // namespace gso::conference
