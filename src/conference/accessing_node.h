// Media-plane accessing node (SFU).
//
// Receives every attached client's uplink media, and per instruction from
// the control plane (GSO mode) — or a local greedy selector (Non-GSO
// mode) — forwards the right simulcast layer to each subscriber, directly
// for same-node subscribers or via peer accessing nodes across regions.
//
// Per attached client the node also runs:
//  - the downlink sender-side BWE (the node is the sender on the downlink;
//    estimates are reported to the conference node — paper §4.2),
//  - transport-wide feedback generation for the client's uplink,
//  - GTBR delivery with TMMBN-acknowledged retransmission (paper §4.3),
//  - NACK/PLI relay and retransmission from the forwarded-packet cache,
//  - the failure fallback: an instructed layer that stops flowing is
//    replaced by the lowest active layer (paper §7 "Design for failure").
#ifndef GSO_CONFERENCE_ACCESSING_NODE_H_
#define GSO_CONFERENCE_ACCESSING_NODE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baseline/template_policy.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/sequence.h"
#include "common/stats.h"
#include "conference/client.h"
#include "conference/directory.h"
#include "media/rtx_cache.h"
#include "net/rtcp_packets.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "sim/process.h"
#include "transport/egress.h"
#include "transport/feedback_builder.h"

namespace gso::conference {

class ConferenceNode;  // control plane (forward declared)

class AccessingNode : public sim::CrashableProcess {
 public:
  AccessingNode(sim::EventLoop* loop, NodeId id, ControlMode mode,
                const StreamDirectory* directory, Rng rng);

  void SetControlPlane(ConferenceNode* control) { control_ = control; }
  // Resolves which node a client is attached to (for cross-node relay).
  void SetNodeResolver(std::function<AccessingNode*(ClientId)> resolver) {
    node_of_ = std::move(resolver);
  }

  // Attaches a client reachable through `downlink` (node -> client).
  void AttachClient(Client* client, sim::Link* downlink);
  // Interconnects with a peer node through `link_to_peer`.
  void ConnectPeer(AccessingNode* peer, sim::Link* link_to_peer);

  void Start();

  // Ingress.
  void OnClientPacket(ClientId from, const sim::Packet& packet);
  void OnPeerPacket(NodeId from, const sim::Packet& packet);

  // --- Control-plane interface (GSO mode) ------------------------------
  // Replaces the forwarding table: ssrc -> subscribers.
  void SetForwarding(std::map<Ssrc, std::vector<ClientId>> table);
  // Sends a stream configuration to an attached publisher, retransmitting
  // until the matching GTBN arrives. `epoch` is the controller's solve
  // epoch; it rides in the GTBR, is echoed in the GTBN, and lets the
  // controller reject acks from superseded solves.
  void SendGsoTmmbr(ClientId publisher, std::vector<net::TmmbrEntry> entries,
                    uint32_t epoch = 0);
  // Tears down all media-plane state for a departed client: detaches it if
  // homed here, and removes it (and its stream SSRCs) from forwarding
  // tables, pending layer switches, uplink bookkeeping, the RTX cache, and
  // local-mode selections.
  void OnClientLeft(ClientId client, const std::vector<Ssrc>& ssrcs);

  // --- Non-GSO (local) mode ---------------------------------------------
  // Registers a subscriber's interest in other publishers' cameras.
  void SetLocalInterest(ClientId subscriber, std::vector<ClientId> publishers);

  // --- Crash / restart (sim::CrashableProcess) ----------------------------
  // Crash wipes the media-plane state (forwarding tables, pending
  // switches, uplink bookkeeping, RTX cache, outstanding GTBRs, local
  // selections) and drops all ingress; client attachments survive as
  // harness-level wiring so a short blip can recover without failover.
  void Crash() override;
  void Restart() override;
  bool alive() const override { return alive_; }
  std::string process_name() const override {
    return "node:" + std::to_string(id_.value());
  }

  // --- Degraded mode (controller-loss fallback, paper §7) -----------------
  // In GSO mode, if no forwarding table has arrived for `deadline`, the
  // node declares the controller unreachable and falls back to local
  // greedy layer selection (the Non-GSO path) so subscribers keep
  // receiving video. The next SetForwarding reclaims it. Zero disables.
  void SetControllerWatchdog(TimeDelta deadline) { watchdog_ = deadline; }
  bool degraded() const { return degraded_; }
  int degraded_entries() const { return degraded_entries_; }

  // Downlink probing toggle (ablation: paper §7 over-estimation lesson).
  void SetProbingEnabled(bool enabled) { probing_enabled_ = enabled; }

  NodeId id() const { return id_; }
  bool IsAttached(ClientId client) const { return clients_.count(client) > 0; }
  DataRate DownlinkEstimate(ClientId client) const;
  int gtbr_retransmissions() const { return gtbr_retransmissions_; }

  // Sizes of every run-lifetime table, for soak-harness invariants: under
  // steady churn each of these must stay bounded (departed clients and
  // their streams fully purged).
  struct TableSizes {
    size_t clients = 0;
    size_t forwarding = 0;
    size_t pending_switches = 0;
    size_t uplink_streams = 0;
    size_t audio_publishers = 0;
    size_t paused = 0;        // summed over attached clients
    size_t selected = 0;      // summed over attached clients
    size_t nack_entries = 0;  // summed over uplink streams
  };
  TableSizes table_sizes() const;

 private:
  struct AttachedClient {
    Client* client = nullptr;
    transport::Egress downlink;
    transport::FeedbackBuilder uplink_feedback;
    DataRate last_reported;
    // Reliable GTBR state.
    struct PendingGtbr {
      net::GsoTmmbr message;
      Timestamp last_sent;
      int attempts = 0;
    };
    std::optional<PendingGtbr> pending_gtbr;
    uint32_t next_request_id = 1;
    // Local-mode interest and current selection per publisher.
    std::vector<ClientId> interest;
    std::map<ClientId, Ssrc> selected;
    // Local congestion safety: instructed layers paused because the
    // downlink estimate fell below the forwarded rate. Entries expire on
    // their deadline or when the controller re-coordinates.
    std::map<Ssrc, Timestamp> paused;  // ssrc -> pause expiry

    AttachedClient(sim::EventLoop* loop, Client* client, sim::Link* link,
                   DataRate start_rate, Ssrc padding_ssrc)
        : client(client), downlink(loop, start_rate, padding_ssrc, link) {}
  };

  struct UplinkStreamState {
    ReceiveWindow window{/*max_attempts=*/4, /*max_batch=*/16};
    Timestamp last_packet = Timestamp::Zero();
    WindowedRateEstimator rate{TimeDelta::Seconds(1)};
  };

  void OnRtcpTick();
  void OnSelectionTick();  // local mode
  void HandleClientRtcp(ClientId from, std::span<const uint8_t> data);
  void HandleMediaPacket(const net::RtpPacket& packet,
                         const sim::Packet& wire, bool from_peer);
  void ForwardToSubscriber(const net::RtpPacket& packet, ClientId subscriber);
  void ForwardToPeers(const sim::Packet& wire, Ssrc ssrc,
                      std::span<const ClientId> subscribers);
  void SendRtcpToClient(ClientId client,
                        const std::vector<net::RtcpMessage>& messages);
  void RelayToPublisher(Ssrc media_ssrc, net::RtcpMessage message);
  // Downlink bandwidth probing: short paced bursts of padding packets
  // toward one client, so the downlink estimate can rise past what the
  // currently forwarded media demonstrates (mirrors the paper's probing
  // lesson, §7, on the server side).
  void MaybeProbeDownlink(ClientId client);
  // Local downlink congestion safety between controller updates: pause the
  // largest instructed layers when the estimate drops below what is being
  // forwarded (the SFU-side analogue of the client's local limit).
  void EnforceDownlinkLimit(ClientId client);
  // Who receives `ssrc`, written into resolved_subscribers_: valid until
  // the next call.
  const std::vector<ClientId>& SubscribersOf(Ssrc ssrc);
  // Resolves every directory stream's stale-layer fallback candidates
  // against the current forwarding table (see fallback_index_).
  void ResolveFallbacks();
  void ReportDownlink(ClientId client, bool force);
  // Sender SSRC of this node's own RTCP (feedback, NACK, PLI, GTBR).
  // SSRCs outside the directory are reserved per sender: client probe
  // padding 0x80000000|client id, node control 0xF0000000|node id, node
  // probe padding 0xF1000000|node id.
  Ssrc ControlSsrc() const { return Ssrc(0xF0000000u | id_.value()); }

  sim::EventLoop* loop_;
  NodeId id_;
  ControlMode mode_;
  const StreamDirectory* directory_;
  Rng rng_;
  ConferenceNode* control_ = nullptr;
  std::function<AccessingNode*(ClientId)> node_of_;

  std::map<ClientId, std::unique_ptr<AttachedClient>> clients_;
  std::map<NodeId, std::pair<AccessingNode*, sim::Link*>> peers_;
  std::map<Ssrc, std::vector<ClientId>> forwarding_;
  // Make-before-break layer switches: when the controller moves a
  // subscriber from old_ssrc to new_ssrc of the same source, the old layer
  // keeps flowing until the new layer's first keyframe is forwarded, so
  // the viewer never sees a decode gap. Keyed by (new_ssrc, subscriber).
  std::map<std::pair<Ssrc, ClientId>, Ssrc> pending_switches_;
  std::map<Ssrc, UplinkStreamState> uplink_streams_;
  // OnRtcpTick's scratch, rebuilt and used within one tick: the uplink
  // streams by (owner, ssrc), and the messages for one client.
  struct OwnedStream {
    ClientId owner;
    Ssrc ssrc;
    UplinkStreamState* stream;  // into uplink_streams_, for this tick only
  };
  std::vector<OwnedStream> owned_streams_;
  std::vector<net::RtcpMessage> tick_messages_;
  std::vector<ClientId> resolved_subscribers_;  // see SubscribersOf
  // Stale-layer fallback (paper §7), resolved once per forwarding table
  // and directory generation: for a stream S, the forwarded SSRCs of the
  // same owner and source with a higher resolution than S, in SSRC order,
  // each with its subscriber list in forwarding_. Per packet only their
  // staleness is checked. Streams without candidates have no entry.
  struct FallbackCandidate {
    Ssrc ssrc;
    const std::vector<ClientId>* subscribers;  // into forwarding_
  };
  struct FallbackRange {
    Ssrc ssrc;
    uint32_t begin;  // [begin, end) in fallback_candidates_
    uint32_t end;
  };
  std::vector<FallbackRange> fallback_index_;  // sorted by ssrc
  std::vector<FallbackCandidate> fallback_candidates_;
  std::vector<StreamInfo> forwarded_infos_;  // reused by ResolveFallbacks
  // Set whenever forwarding_ changes; the index then resolves again.
  bool fallbacks_stale_ = true;
  uint64_t fallbacks_generation_ = 0;  // directory generation resolved at
  media::RtxCache forward_cache_;
  baseline::SfuLayerSelector selector_;
  int gtbr_retransmissions_ = 0;
  bool alive_ = true;
  bool degraded_ = false;
  int degraded_entries_ = 0;
  TimeDelta watchdog_ = TimeDelta::Seconds(8);
  // When the controller last pushed a forwarding table (watchdog input).
  Timestamp last_forwarding_time_ = Timestamp::Zero();
  bool probing_enabled_ = true;
  // Recently active audio publishers, for the fan-out bound.
  std::map<ClientId, Timestamp> audio_publishers_;
  Timestamp last_downlink_report_ = Timestamp::Zero();
  bool last_downlinks_due_ = false;
  bool started_ = false;
};

}  // namespace gso::conference

#endif  // GSO_CONFERENCE_ACCESSING_NODE_H_
