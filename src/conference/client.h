// A conference participant: publisher and subscriber in one.
//
// Send path:  SimulatedEncoder -> Packetizer -> Pacer -> uplink Link.
// Every outgoing packet carries a transport-wide sequence number; feedback
// from the accessing node drives the client's sender-side uplink BWE,
// which is reported in-band via SEMB APP packets (paper §4.2) with both a
// time trigger and a significant-change event trigger (paper §7).
//
// Receive path: RTP is demuxed per SSRC into jitter buffers (video) or the
// audio tracker; NACK/PLI recover losses; stall detectors and quality
// trackers accumulate the paper's QoE metrics.
//
// Control: in GSO mode the client obeys GTBR stream configurations
// (acknowledged with GTBN); in template mode it runs a local
// TemplatePolicy from its own uplink estimate — the Non-GSO baseline.
#ifndef GSO_CONFERENCE_CLIENT_H_
#define GSO_CONFERENCE_CLIENT_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baseline/template_policy.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "conference/directory.h"
#include "core/types.h"
#include "media/audio.h"
#include "media/cpu_model.h"
#include "media/encoder.h"
#include "media/jitter_buffer.h"
#include "media/packetizer.h"
#include "media/quality.h"
#include "media/rtx_cache.h"
#include "media/stall_detector.h"
#include "net/rtcp_packets.h"
#include "net/rtp_packet.h"
#include "net/sdp.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "transport/egress.h"
#include "transport/feedback_builder.h"
#include "transport/pacer.h"

namespace gso::conference {

enum class ControlMode { kGso, kTemplate };

struct ClientConfig {
  ClientId id;
  ControlMode mode = ControlMode::kGso;
  baseline::TemplateKind template_kind = baseline::TemplateKind::kChimeLike;
  // Camera simulcast ladder, largest resolution first.
  media::EncoderConfig camera;
  // Optional screen-share source (second encoder).
  std::optional<media::EncoderConfig> screen;
  // Audio-only participation: the camera encoder never runs (used by the
  // Fig. 9 "audio conferencing" scenario).
  bool video_muted = false;
  // Bitrate levels per resolution advertised to the GSO controller.
  int gso_levels_per_resolution = 5;
  bool supports_fine_bitrate = true;
  // Probing for the bandwidth upper bound (paper §7); disable to ablate.
  bool enable_probing = true;
  // GSO mode only: with no GTBR for this long, the client assumes the
  // controller is unreachable and degrades to local TemplatePolicy layer
  // selection (publishing keeps flowing at Non-GSO quality instead of
  // freezing on a stale grant). A fresh GTBR reclaims it. Zero disables.
  TimeDelta controller_watchdog = TimeDelta::Seconds(8);
};

// Per received video stream statistics exposed to benches.
struct ReceivedStreamStats {
  ClientId publisher;
  core::SourceKind source = core::SourceKind::kCamera;
  Resolution resolution;
  double average_framerate = 0.0;
  double stall_rate = 0.0;
  double average_quality = 0.0;  // VMAF proxy
  DataRate average_bitrate;
  int64_t frames = 0;
};

class Client {
 public:
  Client(sim::EventLoop* loop, ClientConfig config, Rng rng);

  // --- Wiring (called by the Conference harness) -----------------------
  void SetUplink(sim::Link* uplink) { egress_.set_link(uplink); }
  // Re-homed onto another accessing node: its downlink sender numbers the
  // transport-wide sequence from zero, so downlink feedback starts afresh.
  void ResetDownlinkFeedback() { feedback_builder_ = {}; }
  void SetDirectory(const StreamDirectory* directory) {
    directory_ = directory;
  }
  // SDP offer for joining; the conference node answers with the accepted
  // config and the allocated SSRCs (via directory + ConfigureStreams).
  net::SessionDescription BuildOffer() const;
  // Applies negotiated SSRCs: one per camera layer, optional screen layers,
  // one audio.
  void ConfigureStreams(std::vector<Ssrc> camera_layer_ssrcs,
                        std::vector<Ssrc> screen_layer_ssrcs,
                        Ssrc audio_ssrc);
  // Starts periodic media/RTCP/policy timers. Call once after wiring.
  void Start();
  // Halts every periodic timer at its next firing (used when the client
  // leaves mid-meeting). The object must stay alive until the loop drains:
  // scheduled closures still reference it.
  void Stop();
  bool stopped() const { return stopped_; }

  // Network ingress from the accessing node (downlink sink).
  void OnPacketFromNode(const sim::Packet& packet);

  // --- Template-mode inputs -------------------------------------------
  void SetParticipantCount(int count) { participant_count_ = count; }

  // --- Failure injection / fallback (paper §7 "Design for failure") ----
  // Simulates a publisher fault: layer `index` stops producing frames even
  // though the controller asked for it.
  void InjectLayerFault(int layer_index, bool broken);
  // Server-triggered fallback: single low stream only.
  void ForceSingleStreamFallback();

  // --- Introspection ----------------------------------------------------
  ClientId id() const { return config_.id; }
  ControlMode mode() const { return config_.mode; }
  DataRate uplink_estimate() const { return egress_.bwe().target_rate(); }
  const transport::SendSideBwe& uplink_bwe() const { return egress_.bwe(); }
  const transport::Pacer& pacer() const { return pacer_; }
  // Total rate the local encoders currently target (camera + screen).
  DataRate current_publish_rate() const;

  // Aggregate receive-path counters for the observability sampler: sums
  // over all per-SSRC jitter buffers / per-view stall detectors.
  int64_t TotalFramesDecoded() const;
  int64_t TotalFramesDropped() const;
  int64_t TotalStalledIntervals() const;
  // Instantaneous receive rate summed over live views.
  DataRate TotalReceiveRate(Timestamp now);
  const media::CpuMeter& cpu() const { return cpu_; }
  media::CpuMeter& cpu() { return cpu_; }
  // Rate the encoder currently targets for a layer (zero = disabled).
  DataRate camera_layer_rate(int layer_index) const;
  int gtbr_messages_received() const { return gtbr_received_; }

  // --- Degraded mode (controller-loss fallback) -------------------------
  bool degraded() const { return degraded_; }
  int degraded_entries() const { return degraded_entries_; }
  // Cumulative time spent degraded, including a still-open episode.
  TimeDelta TimeInDegraded(Timestamp now) const {
    return degraded_ ? degraded_total_ + (now - degraded_since_)
                     : degraded_total_;
  }
  // Requests a keyframe on every encoder layer (issued after failover:
  // subscribers behind the new accessing node need a fresh decode anchor).
  void ForceKeyframes();

  // Instantaneous received rate of one publisher's view (for time-series
  // benches such as Fig. 7).
  DataRate CurrentReceiveRate(ClientId publisher, core::SourceKind kind);

  // Signals that this client's subscription to a view ended (delivered by
  // the signaling plane); QoE accounting for the view stops here.
  void OnViewEnded(ClientId publisher, core::SourceKind kind);
  // A previously ended view is subscribed again: its QoE stats restart
  // fresh (the ended segment is dropped from reports).
  void OnViewResumed(ClientId publisher, core::SourceKind kind);

  // Drops QoE bookkeeping that can no longer affect a report windowed at
  // or after `t`: views whose subscription ended before it, video stall
  // intervals behind it, audio per-interval counts behind it, and
  // per-SSRC reassembly state for streams silent long enough to be dead
  // (departed publishers' SSRCs are never reused). Driven by the
  // conference at MarkMeasurementStart so hours-long churny meetings keep
  // per-client state O(measurement window), not O(session).
  void TrimQoeHistoryBefore(Timestamp t);

  // Finalizes stall windows and returns per-stream receive stats.
  std::vector<ReceivedStreamStats> ReceiveReport(Timestamp session_start,
                                                 Timestamp session_end);
  double VoiceStallRate(Timestamp session_start, Timestamp session_end) const;

  // The ladder advertised to the GSO controller (camera source).
  std::vector<core::StreamOption> GsoCameraLadder() const;
  std::vector<core::StreamOption> GsoScreenLadder() const;

  // Sizes of every run-lifetime table, for soak-harness invariants: under
  // steady churn + periodic TrimQoeHistoryBefore these must stay bounded.
  struct TableSizes {
    size_t received_streams = 0;
    size_t views = 0;
    size_t audio_received = 0;
    size_t audio_intervals = 0;  // summed received_per_interval entries
    size_t stall_intervals = 0;  // summed per-view stall detector state
  };
  TableSizes table_sizes() const;

 private:
  // Per-SSRC reassembly state. Logical per-view statistics live in
  // ViewStats because a subscriber's view of a publisher can switch
  // between layer SSRCs over time.
  struct ReceivedStream {
    media::JitterBuffer jitter;
    Timestamp last_packet = Timestamp::Zero();
    Timestamp last_pli = Timestamp::Zero();
  };

  struct ViewKey {
    ClientId owner;
    core::SourceKind source;
    bool operator<(const ViewKey& o) const {
      if (owner != o.owner) return owner < o.owner;
      return source < o.source;
    }
  };

  struct ViewStats {
    media::VideoStallDetector stalls;
    WindowedRateEstimator rate{TimeDelta::Seconds(2)};
    RunningStats quality;
    std::deque<Timestamp> recent_frames;  // ~1 s window for fps
    int64_t frames = 0;
    DataSize bytes;
    Resolution last_resolution;
    // Set when the subscription ends: QoE windows stop here (a view the
    // user closed is not a stalled view).
    Timestamp ended_at = Timestamp::PlusInfinity();
  };

  struct AudioReceiveState {
    std::map<int64_t, int> received_per_interval;  // 1 s interval index
    Timestamp first_arrival = Timestamp::PlusInfinity();
    Timestamp last_arrival = Timestamp::Zero();
  };

  // Periodic drivers.
  void OnCameraFrameTick();
  void OnScreenFrameTick();
  void OnAudioTick();
  void OnRtcpTick();
  void OnPolicyTick();

  void TransmitRtp(const net::RtpPacket& packet);
  void HandleRtcp(std::span<const uint8_t> data);
  void HandleRtp(const sim::Packet& packet);
  void ApplyGsoTmmbr(const net::GsoTmmbr& request);
  void ApplyTemplatePolicy();
  void MaybeSendSemb(bool force);
  void MaybeProbe();
  // Clamp encoder targets so total sending respects the local BWE even
  // between controller updates (congestion safety).
  void EnforceLocalCongestionLimit();

  media::SimulatedEncoder* EncoderFor(core::SourceKind kind);
  int LayerIndexOf(Ssrc ssrc) const;

  sim::EventLoop* loop_;
  ClientConfig config_;
  Rng rng_;
  const StreamDirectory* directory_ = nullptr;

  // Send path.
  std::unique_ptr<media::SimulatedEncoder> camera_encoder_;
  std::unique_ptr<media::SimulatedEncoder> screen_encoder_;
  media::Packetizer packetizer_;
  transport::Pacer pacer_;
  transport::Egress egress_;  // the uplink
  media::RtxCache send_cache_;
  std::optional<media::AudioSource> audio_;
  std::vector<Ssrc> camera_ssrcs_;
  std::vector<Ssrc> screen_ssrcs_;
  Ssrc audio_ssrc_;
  // Controller-granted per-layer bitrates (GSO mode).
  std::map<Ssrc, DataRate> granted_;
  std::vector<bool> camera_layer_fault_;
  bool single_stream_fallback_ = false;

  // Receive path.
  transport::FeedbackBuilder feedback_builder_;
  std::map<Ssrc, ReceivedStream> received_;
  std::map<ViewKey, ViewStats> views_;
  std::map<Ssrc, AudioReceiveState> audio_received_;
  std::vector<net::RtcpMessage> pending_rtcp_;

  // Reporting / control state.
  baseline::TemplatePolicy template_policy_;
  int participant_count_ = 2;
  DataRate last_semb_sent_;
  Timestamp last_semb_time_ = Timestamp::Zero();
  int gtbr_received_ = 0;
  // Controller watchdog / degraded-mode state (GSO mode).
  Timestamp last_gtbr_time_ = Timestamp::Zero();
  bool degraded_ = false;
  Timestamp degraded_since_ = Timestamp::Zero();
  TimeDelta degraded_total_ = TimeDelta::Zero();
  int degraded_entries_ = 0;
  media::CpuMeter cpu_;
  double last_camera_cost_ = 0.0;
  double last_screen_cost_ = 0.0;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace gso::conference

#endif  // GSO_CONFERENCE_CLIENT_H_
