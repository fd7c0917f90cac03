#include "conference/accessing_node.h"

#include <algorithm>

#include "common/logging.h"
#include "conference/conference_node.h"
#include "net/rtp_packet.h"

namespace gso::conference {
namespace {

constexpr TimeDelta kRtcpInterval = TimeDelta::Millis(100);
constexpr TimeDelta kSelectionInterval = TimeDelta::Millis(500);
constexpr TimeDelta kGtbrRetryInterval = TimeDelta::Millis(200);
constexpr int kGtbrMaxAttempts = 15;
constexpr TimeDelta kStaleLayerTimeout = TimeDelta::Seconds(2);
constexpr TimeDelta kDownlinkReportPeriod = TimeDelta::Millis(500);
constexpr double kDownlinkReportEventThreshold = 0.10;
// Each subscriber's downlink BWE starts here.
constexpr DataRate kDownlinkStartRate = DataRate::KilobitsPerSec(500);
// Audio is not orchestrated by GSO, but production SFUs still bound the
// fan-out to the top-N active speakers; with no loudness signal in the
// simulation the N lowest client ids are the deterministic proxy.
constexpr int kMaxAudioFanout = 5;

}  // namespace

AccessingNode::AccessingNode(sim::EventLoop* loop, NodeId id,
                             ControlMode mode,
                             const StreamDirectory* directory, Rng rng)
    : loop_(loop), id_(id), mode_(mode), directory_(directory), rng_(rng) {}

void AccessingNode::AttachClient(Client* client, sim::Link* downlink) {
  GSO_CHECK(client != nullptr && downlink != nullptr);
  clients_[client->id()] = std::make_unique<AttachedClient>(
      loop_, client, downlink, kDownlinkStartRate,
      Ssrc(0xF1000000u | id_.value()));
}

void AccessingNode::ConnectPeer(AccessingNode* peer, sim::Link* link) {
  GSO_CHECK(peer != nullptr && link != nullptr);
  peers_[peer->id()] = {peer, link};
}

void AccessingNode::Start() {
  GSO_CHECK(!started_);
  started_ = true;
  // Watchdog grace: "no table yet" at startup is not a dead controller.
  last_forwarding_time_ = loop_->Now();
  loop_->Every(kRtcpInterval, [this] {
    OnRtcpTick();
    return true;
  });
  loop_->Every(kSelectionInterval, [this] {
    OnSelectionTick();
    return true;
  });
}

DataRate AccessingNode::DownlinkEstimate(ClientId client) const {
  const auto it = clients_.find(client);
  return it == clients_.end() ? DataRate::Zero()
                              : it->second->downlink.bwe().target_rate();
}

// --- Ingress ---------------------------------------------------------------

void AccessingNode::OnClientPacket(ClientId from, const sim::Packet& packet) {
  if (!alive_) return;  // a dead node drops everything on the floor
  const auto attached = clients_.find(from);
  if (attached == clients_.end()) return;

  if (net::IsRtcp(packet.data)) {
    HandleClientRtcp(from, packet.data);
    return;
  }
  const auto parsed = net::RtpPacket::Parse(packet.data);
  if (!parsed) return;
  if (parsed->transport_sequence) {
    attached->second->uplink_feedback.OnPacketArrived(
        *parsed->transport_sequence, loop_->Now());
  }
  if (parsed->payload_type == net::kPaddingPayloadType) return;
  HandleMediaPacket(*parsed, packet, /*from_peer=*/false);
}

void AccessingNode::OnPeerPacket(NodeId /*from*/, const sim::Packet& packet) {
  if (!alive_) return;
  if (net::IsRtcp(packet.data)) {
    // Cross-node control relay (NACK/PLI toward a publisher homed here).
    for (const auto& message : net::ParseCompound(packet.data)) {
      if (const auto* nack = std::get_if<net::Nack>(&message)) {
        RelayToPublisher(nack->media_ssrc, *nack);
      } else if (const auto* pli = std::get_if<net::Pli>(&message)) {
        RelayToPublisher(pli->media_ssrc, *pli);
      }
    }
    return;
  }
  const auto parsed = net::RtpPacket::Parse(packet.data);
  if (!parsed) return;
  HandleMediaPacket(*parsed, packet, /*from_peer=*/true);
}

// --- Media forwarding ---------------------------------------------------

void AccessingNode::HandleMediaPacket(const net::RtpPacket& packet,
                                      const sim::Packet& wire,
                                      bool from_peer) {
  const Timestamp now = loop_->Now();

  if (packet.payload_type == net::kAudioPayloadType) {
    // Audio is not orchestrated, but its fan-out is bounded to the top-N
    // active speakers (deterministic lowest-id proxy for loudness).
    const auto info = directory_->Lookup(packet.ssrc);
    if (!info) return;
    audio_publishers_[info->owner] = now;
    for (auto it = audio_publishers_.begin();
         it != audio_publishers_.end();) {
      if (now - it->second > TimeDelta::Seconds(2)) {
        it = audio_publishers_.erase(it);
      } else {
        ++it;
      }
    }
    int rank = 0;
    for (const auto& [owner, _] : audio_publishers_) {
      if (owner == info->owner) break;
      ++rank;
    }
    if (rank >= kMaxAudioFanout) return;
    for (auto& [client_id, attached] : clients_) {
      if (client_id != info->owner) ForwardToSubscriber(packet, client_id);
    }
    // Every peer takes an audio stream, so only a video stream sent with
    // the audio payload type needs its subscribers resolved.
    if (!from_peer) {
      ForwardToPeers(wire, packet.ssrc,
                     info->is_audio ? std::span<const ClientId>()
                                    : SubscribersOf(packet.ssrc));
    }
    return;
  }

  // Video: bookkeeping for NACK, rate measurement, fallback detection.
  auto& stream = uplink_streams_[packet.ssrc];
  stream.last_packet = now;
  stream.rate.Update(now, wire.wire_size);
  if (!from_peer) stream.window.Insert(packet.sequence_number);
  forward_cache_.Put(packet);

  // A keyframe on a new layer completes any pending make-before-break
  // switches onto that layer.
  if (packet.is_keyframe && !pending_switches_.empty()) {
    for (auto it = pending_switches_.begin();
         it != pending_switches_.end();) {
      if (it->first.first == packet.ssrc) {
        it = pending_switches_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Who gets this packet?
  const std::vector<ClientId>& subscribers = SubscribersOf(packet.ssrc);
  bool remote_needed = false;
  for (ClientId subscriber : subscribers) {
    if (clients_.count(subscriber)) {
      ForwardToSubscriber(packet, subscriber);
    } else {
      remote_needed = true;
    }
  }
  if (remote_needed && !from_peer) {
    ForwardToPeers(wire, packet.ssrc, subscribers);
  }
}

const std::vector<ClientId>& AccessingNode::SubscribersOf(Ssrc ssrc) {
  std::vector<ClientId>& out = resolved_subscribers_;
  out.clear();
  if (mode_ == ControlMode::kGso && !degraded_) {
    const auto it = forwarding_.find(ssrc);
    if (it != forwarding_.end()) out = it->second;
    // Make-before-break: subscribers still waiting for another layer's
    // keyframe keep receiving this (old) layer.
    for (const auto& [key, old_ssrc] : pending_switches_) {
      if (old_ssrc == ssrc &&
          std::find(out.begin(), out.end(), key.second) == out.end()) {
        out.push_back(key.second);
      }
    }
    // Failure fallback: also deliver to subscribers whose instructed layer
    // of the same source has gone stale (paper §7). Substitute only from a
    // lower resolution (safe for downlinks).
    if (fallbacks_stale_ ||
        fallbacks_generation_ != directory_->generation()) {
      ResolveFallbacks();
    }
    const auto range = std::lower_bound(
        fallback_index_.begin(), fallback_index_.end(), ssrc,
        [](const FallbackRange& r, Ssrc key) { return r.ssrc < key; });
    if (range != fallback_index_.end() && range->ssrc == ssrc) {
      const Timestamp now = loop_->Now();
      for (uint32_t i = range->begin; i < range->end; ++i) {
        const FallbackCandidate& other = fallback_candidates_[i];
        const auto state = uplink_streams_.find(other.ssrc);
        const bool stale =
            state == uplink_streams_.end() ||
            now - state->second.last_packet > kStaleLayerTimeout;
        if (!stale) continue;
        for (ClientId s : *other.subscribers) {
          if (std::find(out.begin(), out.end(), s) == out.end()) {
            out.push_back(s);
          }
        }
      }
    }
    return out;
  }
  // Local (Non-GSO) mode: subscribers whose greedy selection picked it.
  const auto info = directory_->Lookup(ssrc);
  if (!info) return out;
  for (const auto& [client_id, attached] : clients_) {
    const auto sel = attached->selected.find(info->owner);
    if (sel != attached->selected.end() && sel->second == ssrc) {
      out.push_back(client_id);
    }
  }
  return out;
}

void AccessingNode::ResolveFallbacks() {
  forwarded_infos_.clear();
  for (const auto& [ssrc, _] : forwarding_) {
    if (const auto info = directory_->Lookup(ssrc)) {
      forwarded_infos_.push_back(*info);
    }
  }
  fallback_index_.clear();
  fallback_candidates_.clear();
  // Every directory stream, forwarded or not, may be the lower layer that
  // stands in for a stale one.
  directory_->ForEach([this](const StreamInfo& info) {
    const auto begin = static_cast<uint32_t>(fallback_candidates_.size());
    for (const StreamInfo& other : forwarded_infos_) {
      if (other.ssrc == info.ssrc || other.owner != info.owner ||
          other.source != info.source ||
          !(info.resolution < other.resolution)) {
        continue;
      }
      fallback_candidates_.push_back(
          FallbackCandidate{other.ssrc, &forwarding_.at(other.ssrc)});
    }
    const auto end = static_cast<uint32_t>(fallback_candidates_.size());
    if (end > begin) fallback_index_.push_back({info.ssrc, begin, end});
  });
  std::sort(fallback_index_.begin(), fallback_index_.end(),
            [](const FallbackRange& a, const FallbackRange& b) {
              return a.ssrc < b.ssrc;
            });
  fallbacks_stale_ = false;
  fallbacks_generation_ = directory_->generation();
}

void AccessingNode::ForwardToSubscriber(const net::RtpPacket& packet,
                                        ClientId subscriber) {
  const auto it = clients_.find(subscriber);
  if (it == clients_.end()) return;
  auto& attached = *it->second;
  if (packet.payload_type != net::kAudioPayloadType) {
    const auto paused = attached.paused.find(packet.ssrc);
    if (paused != attached.paused.end()) {
      if (loop_->Now() < paused->second) {
        return;  // paused by the local downlink congestion limit
      }
      attached.paused.erase(paused);
    }
  }
  attached.downlink.SendRtp(packet);
}

void AccessingNode::ForwardToPeers(const sim::Packet& wire, Ssrc ssrc,
                                   std::span<const ClientId> subscribers) {
  // Audio fan-out: every peer with any attached client needs it.
  const auto info = directory_->Lookup(ssrc);
  const bool audio = info && info->is_audio;
  // One copy per peer that homes at least one subscriber of the stream.
  for (auto& [peer_id, peer] : peers_) {
    const bool needed =
        audio || std::any_of(subscribers.begin(), subscribers.end(),
                             [&peer](ClientId subscriber) {
                               return peer.first->IsAttached(subscriber);
                             });
    if (!needed) continue;
    peer.second->Send(wire);
  }
}

// --- Client RTCP -----------------------------------------------------------

void AccessingNode::HandleClientRtcp(ClientId from,
                                     std::span<const uint8_t> data) {
  auto& attached = *clients_.at(from);
  for (const auto& message : net::ParseCompound(data)) {
    if (const auto* fb = std::get_if<net::TransportFeedback>(&message)) {
      attached.downlink.bwe().OnFeedback(*fb, loop_->Now());
      ReportDownlink(from, /*force=*/false);
    } else if (const auto* semb = std::get_if<net::Semb>(&message)) {
      if (control_) control_->OnSembReport(from, semb->bitrate);
    } else if (const auto* ack = std::get_if<net::GsoTmmbn>(&message)) {
      if (attached.pending_gtbr &&
          attached.pending_gtbr->message.request_id == ack->request_id) {
        attached.pending_gtbr.reset();
      }
      // Always forward to the controller: epoch matching happens there
      // (a stale ack must be counted, not silently dropped here).
      if (control_) control_->OnGtbnAck(from, *ack);
    } else if (const auto* nack = std::get_if<net::Nack>(&message)) {
      std::vector<uint16_t> missing;
      for (uint16_t seq : nack->sequences) {
        if (const auto cached = forward_cache_.Get(nack->media_ssrc, seq)) {
          ForwardToSubscriber(*cached, from);
        } else {
          missing.push_back(seq);
        }
      }
      if (!missing.empty()) {
        net::Nack upstream = *nack;
        upstream.sequences = std::move(missing);
        RelayToPublisher(nack->media_ssrc, upstream);
      }
    } else if (const auto* pli = std::get_if<net::Pli>(&message)) {
      RelayToPublisher(pli->media_ssrc, *pli);
    }
  }
}

void AccessingNode::RelayToPublisher(Ssrc media_ssrc,
                                     net::RtcpMessage message) {
  const auto info = directory_->Lookup(media_ssrc);
  if (!info) return;
  if (clients_.count(info->owner)) {
    SendRtcpToClient(info->owner, {std::move(message)});
    return;
  }
  if (!node_of_) return;
  AccessingNode* home = node_of_(info->owner);
  if (home == nullptr || home == this) return;
  const auto peer = peers_.find(home->id());
  if (peer == peers_.end()) return;
  transport::SendDatagram(*peer->second.second, loop_->Now(),
                          net::SerializeCompound({message}));
}

void AccessingNode::SendRtcpToClient(
    ClientId client, const std::vector<net::RtcpMessage>& messages) {
  if (messages.empty()) return;
  const auto it = clients_.find(client);
  if (it == clients_.end()) return;
  it->second->downlink.SendRtcp(messages);
}

// --- Periodic work -----------------------------------------------------

void AccessingNode::OnRtcpTick() {
  if (!alive_) return;  // frozen while dead; the timer itself keeps ticking
  const Timestamp now = loop_->Now();
  const Ssrc node_ssrc = ControlSsrc();

  // Liveness signal to the controller (it declares this node dead after
  // kNodeHeartbeatTimeout of silence and re-homes our clients).
  if (control_) control_->OnNodeHeartbeat(id_);

  // Controller watchdog: in GSO mode, a forwarding-table drought longer
  // than the deadline means the controller (or the path to it) is gone —
  // fall back to local greedy selection until a table arrives again.
  if (mode_ == ControlMode::kGso && watchdog_ > TimeDelta::Zero() &&
      !degraded_ && now - last_forwarding_time_ > watchdog_) {
    degraded_ = true;
    ++degraded_entries_;
  }

  // The uplink streams the directory knows, ordered by (owner, ssrc): one
  // lookup per stream, not one per stream per client.
  owned_streams_.clear();
  for (auto& [ssrc, stream] : uplink_streams_) {
    const auto info = directory_->Lookup(ssrc);
    if (info) owned_streams_.push_back({info->owner, ssrc, &stream});
  }
  std::sort(owned_streams_.begin(), owned_streams_.end(),
            [](const OwnedStream& a, const OwnedStream& b) {
              return a.owner != b.owner ? a.owner < b.owner : a.ssrc < b.ssrc;
            });
  auto own = owned_streams_.begin();
  for (auto& [client_id, attached] : clients_) {
    std::vector<net::RtcpMessage>& messages = tick_messages_;
    messages.clear();
    if (auto feedback = attached->uplink_feedback.Build(node_ssrc)) {
      messages.push_back(std::move(*feedback));
    }
    // GTBR retransmission until acknowledged.
    if (attached->pending_gtbr) {
      auto& pending = *attached->pending_gtbr;
      if (pending.attempts == 0 ||
          now - pending.last_sent >= kGtbrRetryInterval) {
        if (pending.attempts >= kGtbrMaxAttempts) {
          attached->pending_gtbr.reset();
        } else {
          if (pending.attempts > 0) ++gtbr_retransmissions_;
          ++pending.attempts;
          pending.last_sent = now;
          messages.push_back(pending.message);
        }
      }
    }
    // Upstream NACKs for this client's own published streams. Both walks
    // ascend by client, so one cursor serves every client.
    while (own != owned_streams_.end() && own->owner < client_id) ++own;
    for (; own != owned_streams_.end() && own->owner == client_id; ++own) {
      auto nacks = own->stream->window.Collect(now, /*floor=*/INT64_MIN);
      if (!nacks.empty()) {
        messages.push_back(net::Nack{node_ssrc, own->ssrc, std::move(nacks)});
      }
    }
    SendRtcpToClient(client_id, messages);
  }

  for (auto& [client_id, _] : clients_) {
    MaybeProbeDownlink(client_id);
    EnforceDownlinkLimit(client_id);
  }

  // Periodic downlink reports (time trigger).
  if (now - last_downlink_report_ >= kDownlinkReportPeriod) {
    last_downlinks_due_ = true;
    last_downlink_report_ = now;
  }
  if (last_downlinks_due_) {
    for (auto& [client_id, _] : clients_) ReportDownlink(client_id, true);
    last_downlinks_due_ = false;
  }
}

void AccessingNode::EnforceDownlinkLimit(ClientId client) {
  // Emergency brake only: the controller owns allocation; the node steps
  // in solely when the downlink estimate has *dropped* well below what is
  // flowing (otherwise sending would keep overloading the link until the
  // next orchestration, >= 1 s away). Paused layers stay paused until the
  // controller reconciles with a new forwarding table.
  auto& attached = *clients_.at(client);
  const Timestamp now = loop_->Now();
  const transport::SendSideBwe& bwe = attached.downlink.bwe();
  const DataRate estimate = bwe.target_rate();
  // The brake needs *observable* congestion — heavy residual loss or a
  // standing queue — not a stale estimate-vs-flow mismatch: during ramps
  // the estimate routinely lags what the link demonstrably carries, and
  // pausing then would itself create the freeze it tries to prevent.
  const bool loss_emergency = bwe.loss_fraction() > 0.35;
  const bool queue_emergency = bwe.StandingQueue();
  if (!loss_emergency && !queue_emergency) return;

  // Measure the unpaused video currently flowing toward this subscriber.
  std::vector<std::pair<DataRate, Ssrc>> layers;
  DataRate total;
  for (const auto& [ssrc, subs] : forwarding_) {
    const auto paused = attached.paused.find(ssrc);
    if (paused != attached.paused.end() && now < paused->second) continue;
    if (std::find(subs.begin(), subs.end(), client) == subs.end()) continue;
    const auto info = directory_->Lookup(ssrc);
    if (!info || info->is_audio) continue;
    const auto state = uplink_streams_.find(ssrc);
    if (state == uplink_streams_.end() ||
        now - state->second.last_packet > TimeDelta::Seconds(1)) {
      continue;  // not flowing, nothing to pause
    }
    const DataRate rate = state->second.rate.Rate(now);
    layers.emplace_back(rate, ssrc);
    total += rate;
  }
  if (total.IsZero()) return;

  // Pause the largest layers until the remainder fits; always keep the
  // smallest flowing layer alive (a degraded view beats a black screen).
  // Under a loss emergency (the downlink is actively shedding packets)
  // everything except the smallest layer is shed immediately.
  std::sort(layers.begin(), layers.end());
  const DataRate keep_budget =
      loss_emergency ? layers.empty() ? DataRate::Zero() : layers.front().first
                     : estimate;
  // Pauses expire on their own (the queue drains in well under a second);
  // the controller's next run supersedes them anyway.
  const Timestamp expiry = now + TimeDelta::Millis(600);
  while (layers.size() > 1 && total > keep_budget) {
    const auto [rate, ssrc] = layers.back();
    layers.pop_back();
    attached.paused[ssrc] = expiry;
    total -= rate;
  }
}

void AccessingNode::MaybeProbeDownlink(ClientId client) {
  if (!probing_enabled_) return;
  auto& downlink = clients_.at(client)->downlink;
  const Timestamp now = loop_->Now();
  if (!downlink.bwe().WantsProbe(now)) return;
  const int cluster = downlink.StartProbe(now);
  const DataRate probe_rate =
      downlink.bwe().target_rate() * transport::kProbeRateFactor;
  const DataSize size = DataSize::Bytes(transport::kProbePacketBytes);
  TimeDelta offset = TimeDelta::Zero();
  for (int i = 0; i < transport::kProbePacketCount; ++i) {
    // The client may have left (or re-attached) before the timer fires.
    loop_->After(offset, [this, client, cluster] {
      const auto it = clients_.find(client);
      if (it != clients_.end()) it->second->downlink.SendPadding(cluster);
    });
    offset += size / probe_rate;
  }
}

void AccessingNode::ReportDownlink(ClientId client, bool force) {
  if (!control_) return;
  auto& attached = *clients_.at(client);
  const DataRate estimate = attached.downlink.bwe().ReportedRate();
  const bool significant =
      attached.last_reported.IsZero() ||
      std::abs(estimate.bps() - attached.last_reported.bps()) >
          static_cast<int64_t>(kDownlinkReportEventThreshold *
                               static_cast<double>(
                                   attached.last_reported.bps()));
  if (!force && !significant) return;
  attached.last_reported = estimate;
  control_->OnDownlinkReport(client, estimate);
}

void AccessingNode::OnSelectionTick() {
  if (!alive_) return;
  // Local greedy selection runs in Non-GSO mode always, and in GSO mode
  // only while degraded (the controller-loss fallback).
  if (mode_ != ControlMode::kTemplate && !degraded_) return;
  const Timestamp now = loop_->Now();
  for (auto& [subscriber_id, attached] : clients_) {
    DataRate budget = attached->downlink.bwe().target_rate();
    std::map<ClientId, Ssrc> new_selection;
    // Greedy sequential allocation over publishers — the "fragmented view"
    // behaviour that produces Fig. 3c's uneven split.
    for (ClientId publisher : attached->interest) {
      const auto layers =
          directory_->LayersOf(publisher, core::SourceKind::kCamera);
      std::vector<DataRate> rates;
      std::vector<Ssrc> ssrcs;
      for (const auto& layer : layers) {
        const auto state = uplink_streams_.find(layer.ssrc);
        const bool active =
            state != uplink_streams_.end() &&
            now - state->second.last_packet < TimeDelta::Seconds(1);
        rates.push_back(active ? state->second.rate.Rate(now)
                               : DataRate::Zero());
        ssrcs.push_back(layer.ssrc);
      }
      // Largest-first order: directory layers are ladder order (largest
      // resolution first by construction).
      const int pick = selector_.Select(rates, budget);
      if (pick >= 0) {
        new_selection[publisher] = ssrcs[static_cast<size_t>(pick)];
        budget -= rates[static_cast<size_t>(pick)];
      }
    }
    // Keyframe-request on switch so the subscriber resyncs quickly.
    for (const auto& [publisher, ssrc] : new_selection) {
      const auto prev = attached->selected.find(publisher);
      if (prev == attached->selected.end() || prev->second != ssrc) {
        RelayToPublisher(ssrc, net::Pli{ControlSsrc(), ssrc});
      }
    }
    attached->selected = std::move(new_selection);
  }
}

// --- Control-plane interface ---------------------------------------------

void AccessingNode::SetForwarding(
    std::map<Ssrc, std::vector<ClientId>> table) {
  if (!alive_) return;  // a dead node cannot accept coordination
  last_forwarding_time_ = loop_->Now();
  if (degraded_) {
    // The controller is back: its table supersedes the local fallback
    // selections immediately.
    degraded_ = false;
    for (auto& [_, attached] : clients_) attached->selected.clear();
  }
  // A fresh coordination supersedes local pauses.
  for (auto& [_, attached] : clients_) attached->paused.clear();

  // Make-before-break: a subscriber moved between layers of the same
  // source keeps the old layer until the new one delivers a keyframe.
  auto selected_in = [this](const std::map<Ssrc, std::vector<ClientId>>& t,
                            ClientId subscriber, ClientId owner,
                            core::SourceKind kind) -> std::optional<Ssrc> {
    for (const auto& [ssrc, subs] : t) {
      const auto info = directory_->Lookup(ssrc);
      if (!info || info->owner != owner || info->source != kind) continue;
      if (std::find(subs.begin(), subs.end(), subscriber) != subs.end()) {
        return ssrc;
      }
    }
    return std::nullopt;
  };
  std::map<std::pair<Ssrc, ClientId>, Ssrc> new_pending;
  for (const auto& [new_ssrc, subs] : table) {
    const auto info = directory_->Lookup(new_ssrc);
    if (!info || info->is_audio) continue;
    for (ClientId subscriber : subs) {
      if (!clients_.count(subscriber)) continue;
      const auto old_ssrc =
          selected_in(forwarding_, subscriber, info->owner, info->source);
      if (old_ssrc && *old_ssrc != new_ssrc) {
        new_pending[{new_ssrc, subscriber}] = *old_ssrc;
      }
    }
  }
  pending_switches_ = std::move(new_pending);
  // Keyframe requests for any (ssrc, subscriber) pair that is new.
  for (const auto& [ssrc, subscribers] : table) {
    const auto old = forwarding_.find(ssrc);
    for (ClientId subscriber : subscribers) {
      if (!clients_.count(subscriber)) continue;
      const bool existed =
          old != forwarding_.end() &&
          std::find(old->second.begin(), old->second.end(), subscriber) !=
              old->second.end();
      if (!existed) {
        RelayToPublisher(ssrc, net::Pli{ControlSsrc(), ssrc});
      }
    }
  }
  forwarding_ = std::move(table);
  fallbacks_stale_ = true;
}

void AccessingNode::SendGsoTmmbr(ClientId publisher,
                                 std::vector<net::TmmbrEntry> entries,
                                 uint32_t epoch) {
  if (!alive_) return;  // the controller's ack timeout will notice
  const auto it = clients_.find(publisher);
  if (it == clients_.end()) return;
  auto& attached = *it->second;
  net::GsoTmmbr message;
  message.sender_ssrc = ControlSsrc();
  message.request_id = attached.next_request_id++;
  message.epoch = epoch;
  message.entries = std::move(entries);
  attached.pending_gtbr =
      AttachedClient::PendingGtbr{std::move(message), Timestamp::Zero(), 0};
  // First transmission goes out immediately rather than on the next tick.
  attached.pending_gtbr->attempts = 1;
  attached.pending_gtbr->last_sent = loop_->Now();
  SendRtcpToClient(publisher, {attached.pending_gtbr->message});
}

void AccessingNode::OnClientLeft(ClientId client,
                                 const std::vector<Ssrc>& ssrcs) {
  clients_.erase(client);
  audio_publishers_.erase(client);

  // The departed client as a subscriber: purge it from every forwarding
  // entry and pending switch.
  for (auto& [_, subs] : forwarding_) {
    subs.erase(std::remove(subs.begin(), subs.end(), client), subs.end());
  }
  fallbacks_stale_ = true;
  for (auto it = pending_switches_.begin(); it != pending_switches_.end();) {
    const bool dead_subscriber = it->first.second == client;
    const bool dead_stream =
        std::find(ssrcs.begin(), ssrcs.end(), it->first.first) !=
            ssrcs.end() ||
        std::find(ssrcs.begin(), ssrcs.end(), it->second) != ssrcs.end();
    it = dead_subscriber || dead_stream ? pending_switches_.erase(it)
                                        : std::next(it);
  }

  // The departed client as a publisher: drop its streams everywhere.
  for (Ssrc ssrc : ssrcs) {
    forwarding_.erase(ssrc);
    uplink_streams_.erase(ssrc);
    forward_cache_.Drop(ssrc);
    for (auto& [_, attached] : clients_) attached->paused.erase(ssrc);
  }
  for (auto& [_, attached] : clients_) {
    attached->interest.erase(std::remove(attached->interest.begin(),
                                         attached->interest.end(), client),
                             attached->interest.end());
    attached->selected.erase(client);
  }
}

void AccessingNode::SetLocalInterest(ClientId subscriber,
                                     std::vector<ClientId> publishers) {
  const auto it = clients_.find(subscriber);
  if (it == clients_.end()) return;
  it->second->interest = std::move(publishers);
}

// --- Crash / restart -------------------------------------------------------

void AccessingNode::Crash() {
  if (!alive_) return;
  alive_ = false;
  // Media-plane state dies with the process. Client attachments (and their
  // transport state) are harness-level wiring and survive: a node that
  // comes back before the controller declares it dead resumes serving the
  // same clients once a fresh forwarding table arrives.
  forwarding_.clear();
  fallbacks_stale_ = true;
  pending_switches_.clear();
  uplink_streams_.clear();
  forward_cache_.Clear();
  audio_publishers_.clear();
  for (auto& [_, attached] : clients_) {
    attached->pending_gtbr.reset();
    attached->paused.clear();
    attached->selected.clear();
  }
  degraded_ = false;
}

void AccessingNode::Restart() {
  if (alive_) return;
  alive_ = true;
  // Fresh watchdog grace: the revived node must not instantly declare the
  // controller dead just because no table arrived while it was down.
  last_forwarding_time_ = loop_->Now();
}

AccessingNode::TableSizes AccessingNode::table_sizes() const {
  TableSizes sizes;
  sizes.clients = clients_.size();
  sizes.forwarding = forwarding_.size();
  sizes.pending_switches = pending_switches_.size();
  sizes.uplink_streams = uplink_streams_.size();
  sizes.audio_publishers = audio_publishers_.size();
  for (const auto& [_, attached] : clients_) {
    sizes.paused += attached->paused.size();
    sizes.selected += attached->selected.size();
  }
  for (const auto& [_, stream] : uplink_streams_) {
    sizes.nack_entries += stream.window.retry_entries();
  }
  return sizes;
}

}  // namespace gso::conference
