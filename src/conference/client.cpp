#include "conference/client.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"

namespace gso::conference {
namespace {

constexpr TimeDelta kRtcpInterval = TimeDelta::Millis(100);
constexpr TimeDelta kPolicyInterval = TimeDelta::Seconds(1);
constexpr TimeDelta kPliMinInterval = TimeDelta::Millis(300);
constexpr TimeDelta kSembTimeTrigger = TimeDelta::Seconds(1);
constexpr double kSembEventThreshold = 0.10;  // 10% change fires a report
// Reassembly state of an SSRC idle this long is dropped (see
// Client::TrimQoeHistoryBefore).
constexpr TimeDelta kDeadStreamIdle = TimeDelta::Seconds(30);
// Voice stall (paper footnote 10): audio publishers send one packet per
// 20 ms, 50 per playback interval; an interval with fewer than 45 of them
// on time lost more than 10% and stalls.
constexpr int64_t kAudioPacketsPerInterval =
    media::kPlaybackInterval.us() / media::kAudioPacketInterval.us();
constexpr int kVoiceStallMinReceived = static_cast<int>(
    kAudioPacketsPerInterval -
    kAudioPacketsPerInterval * media::kVoiceStallLossThreshold);
static_assert(kVoiceStallMinReceived == 45);

// Index of the playback interval holding `t`.
int64_t PlaybackInterval(Timestamp t) {
  return t.us() / media::kPlaybackInterval.us();
}

// The uplink BWE and the pacer start here.
constexpr DataRate kUplinkStartRate = DataRate::KilobitsPerSec(300);

// Padding SSRCs live outside the directory so nodes do not forward them
// (reserved ranges: see AccessingNode::ControlSsrc).
Ssrc PaddingSsrc(ClientId id) { return Ssrc(0x80000000u | id.value()); }

}  // namespace

Client::Client(sim::EventLoop* loop, ClientConfig config, Rng rng)
    : loop_(loop),
      config_(std::move(config)),
      rng_(rng),
      pacer_(loop, kUplinkStartRate),
      egress_(loop, kUplinkStartRate, PaddingSsrc(config_.id)),
      template_policy_(config_.template_kind) {
  camera_encoder_ = std::make_unique<media::SimulatedEncoder>(
      config_.camera, rng_.Fork());
  if (config_.screen) {
    screen_encoder_ = std::make_unique<media::SimulatedEncoder>(
        *config_.screen, rng_.Fork());
  }
  camera_layer_fault_.assign(config_.camera.layers.size(), false);
}

net::SessionDescription Client::BuildOffer() const {
  net::SessionDescription offer;
  offer.client = config_.id;
  offer.has_audio = config_.has_audio;
  offer.has_video = true;
  net::SimulcastInfo info;
  info.codec = config_.codec;
  info.max_parallel_streams = static_cast<int>(config_.camera.layers.size());
  info.supports_fine_bitrate = config_.supports_fine_bitrate;
  for (const auto& layer : config_.camera.layers) {
    // SSRCs are assigned by the conference node during negotiation; the
    // offer carries zero placeholders.
    info.layers.push_back({layer.resolution, layer.max_bitrate, Ssrc(0)});
  }
  offer.simulcast = info;
  return offer;
}

void Client::ConfigureStreams(std::vector<Ssrc> camera_layer_ssrcs,
                              std::vector<Ssrc> screen_layer_ssrcs,
                              Ssrc audio_ssrc) {
  GSO_CHECK_EQ(camera_layer_ssrcs.size(), config_.camera.layers.size());
  // On a reconfigure (failover re-home) grants keyed by the old SSRCs are
  // meaningless; the next GTBR or template decision repopulates.
  granted_.clear();
  camera_ssrcs_ = std::move(camera_layer_ssrcs);
  screen_ssrcs_ = std::move(screen_layer_ssrcs);
  audio_ssrc_ = audio_ssrc;
  if (config_.has_audio) audio_.emplace(audio_ssrc_);
}

void Client::Start() {
  GSO_CHECK(!started_);
  GSO_CHECK(egress_.link() != nullptr);
  GSO_CHECK(directory_ != nullptr);
  started_ = true;
  stopped_ = false;
  // Watchdog grace: "no GTBR yet" right after joining is not an outage.
  last_gtbr_time_ = loop_->Now();

  // Every timer checks stopped_ so a departed client's media and control
  // traffic ceases; the object itself stays alive because the loop still
  // holds these closures.
  if (!config_.video_muted) {
    loop_->Every(camera_encoder_->FrameInterval(), [this] {
      if (stopped_) return false;
      OnCameraFrameTick();
      return true;
    });
  }
  if (screen_encoder_) {
    loop_->Every(screen_encoder_->FrameInterval(), [this] {
      if (stopped_) return false;
      OnScreenFrameTick();
      return true;
    });
  }
  if (audio_) {
    loop_->Every(media::kAudioPacketInterval, [this] {
      if (stopped_) return false;
      OnAudioTick();
      return true;
    });
  }
  loop_->Every(kRtcpInterval, [this] {
    if (stopped_) return false;
    OnRtcpTick();
    return true;
  });
  loop_->Every(kPolicyInterval, [this] {
    if (stopped_) return false;
    OnPolicyTick();
    return true;
  });
  // Template mode starts sending immediately from the local policy; GSO
  // mode waits for the first GTBR from the controller.
  if (config_.mode == ControlMode::kTemplate) ApplyTemplatePolicy();
}

void Client::Stop() { stopped_ = true; }

// --- Send path ------------------------------------------------------------

void Client::OnCameraFrameTick() {
  for (const auto& frame : camera_encoder_->EncodeTick(loop_->Now())) {
    if (camera_layer_fault_[static_cast<size_t>(frame.layer_index)]) {
      continue;  // injected fault: encoded but never leaves the device
    }
    const Ssrc ssrc = camera_ssrcs_[static_cast<size_t>(frame.layer_index)];
    for (auto& packet : packetizer_.Packetize(ssrc, frame)) {
      packet.payload_type = net::kVideoPayloadType;
      SendRtp(std::move(packet), /*pace=*/true);
    }
  }
  cpu_.AddEncodeCost(camera_encoder_->total_encode_cost() -
                     last_camera_cost_);
  last_camera_cost_ = camera_encoder_->total_encode_cost();
}

void Client::OnScreenFrameTick() {
  if (!screen_encoder_) return;
  for (const auto& frame : screen_encoder_->EncodeTick(loop_->Now())) {
    const Ssrc ssrc = screen_ssrcs_[static_cast<size_t>(frame.layer_index)];
    for (auto& packet : packetizer_.Packetize(ssrc, frame)) {
      packet.payload_type = net::kVideoPayloadType;
      SendRtp(std::move(packet), /*pace=*/true);
    }
  }
  cpu_.AddEncodeCost(screen_encoder_->total_encode_cost() -
                     last_screen_cost_);
  last_screen_cost_ = screen_encoder_->total_encode_cost();
}

void Client::OnAudioTick() {
  const auto audio = audio_->NextPacket(loop_->Now());
  net::RtpPacket packet;
  packet.payload_type = net::kAudioPayloadType;
  packet.ssrc = audio.ssrc;
  packet.sequence_number = audio.sequence;
  // 48 kHz media clock carries the capture time so receivers can apply
  // the playout deadline (late audio is as lost as dropped audio).
  packet.timestamp =
      static_cast<uint32_t>(audio.capture_time.us() * 48 / 1000);
  packet.marker = true;
  packet.payload_size =
      static_cast<uint32_t>(media::kAudioPayloadSize.bytes());
  packet.packets_in_frame = 1;
  // Audio bypasses the pacer: tiny and latency-critical.
  SendRtp(std::move(packet), /*pace=*/false);
}

void Client::SendRtp(net::RtpPacket packet, bool pace) {
  if (!pace) {
    TransmitRtp(packet);
    return;
  }
  pacer_.Enqueue(transport::Egress::WireSize(packet),
                 [this, packet = std::move(packet)](std::optional<int>) {
                   TransmitRtp(packet);
                 });
}

void Client::TransmitRtp(const net::RtpPacket& packet) {
  cpu_.AddPacketProcessed();
  const net::RtpPacket sent = egress_.SendRtp(packet);
  if (sent.payload_type == net::kVideoPayloadType) send_cache_.Put(sent);
}

// --- Receive path -----------------------------------------------------

void Client::OnPacketFromNode(const sim::Packet& packet) {
  // In-flight packets may still arrive after the client left; a stopped
  // client neither decodes nor answers them.
  if (stopped_) return;
  if (net::IsRtcp(packet.data)) {
    HandleRtcp(packet.data);
  } else {
    HandleRtp(packet);
  }
}

void Client::HandleRtp(const sim::Packet& sim_packet) {
  const auto parsed = net::RtpPacket::Parse(sim_packet.data);
  if (!parsed) return;
  const Timestamp now = loop_->Now();
  cpu_.AddPacketProcessed();

  if (parsed->transport_sequence) {
    feedback_builder_.OnPacketArrived(*parsed->transport_sequence, now);
  }
  if (parsed->payload_type == net::kPaddingPayloadType) return;

  if (parsed->payload_type == net::kAudioPayloadType) {
    auto& state = audio_received_[parsed->ssrc];
    state.first_arrival = std::min(state.first_arrival, now);
    state.last_arrival = std::max(state.last_arrival, now);
    // Playout deadline: audio arriving more than 250 ms after capture
    // missed its slot — it counts as lost for the voice-stall metric.
    const Timestamp capture =
        Timestamp::Micros(static_cast<int64_t>(parsed->timestamp) * 1000 / 48);
    if (now - capture <= TimeDelta::Millis(250)) {
      // Playback intervals only grow: bump the newest entry, or append.
      auto& counts = state.received_per_interval;
      const int64_t interval = PlaybackInterval(now);
      if (!counts.empty() && counts.rbegin()->first == interval) {
        ++counts.rbegin()->second;
      } else {
        ++counts.emplace_hint(counts.end(), interval, 0)->second;
      }
    }
    return;
  }

  const auto info = directory_->Lookup(parsed->ssrc);
  if (!info || info->is_audio) return;

  auto& stream = received_[parsed->ssrc];
  stream.last_packet = now;
  auto& view = views_[ViewKey{info->owner, info->source}];
  view.bytes += sim_packet.wire_size;
  view.rate.Update(now, sim_packet.wire_size);
  view.last_resolution = info->resolution;

  for (const auto& frame : stream.jitter.Insert(*parsed, now)) {
    view.stalls.OnFrameRendered(now);
    view.frames++;
    view.recent_frames.push_back(now);
    while (!view.recent_frames.empty() &&
           now - view.recent_frames.front() > TimeDelta::Seconds(1)) {
      view.recent_frames.pop_front();
    }
    const double fps = static_cast<double>(view.recent_frames.size());
    view.quality.Add(media::VmafProxy::Score(
        info->resolution, view.rate.Rate(now), fps));
    cpu_.AddDecodeFrame(info->resolution);
    (void)frame;
  }
}

void Client::HandleRtcp(std::span<const uint8_t> data) {
  cpu_.AddControlMessage();
  for (const auto& message : net::ParseCompound(data)) {
    if (const auto* fb = std::get_if<net::TransportFeedback>(&message)) {
      egress_.bwe().OnFeedback(*fb, loop_->Now());
      pacer_.SetTargetRate(egress_.bwe().target_rate());
      MaybeSendSemb(/*force=*/false);
      EnforceLocalCongestionLimit();
    } else if (const auto* gtbr = std::get_if<net::GsoTmmbr>(&message)) {
      ApplyGsoTmmbr(*gtbr);
    } else if (const auto* nack = std::get_if<net::Nack>(&message)) {
      for (uint16_t seq : nack->sequences) {
        if (const auto cached = send_cache_.Get(nack->media_ssrc, seq)) {
          TransmitRtp(*cached);
        }
      }
    } else if (const auto* pli = std::get_if<net::Pli>(&message)) {
      const int layer = LayerIndexOf(pli->media_ssrc);
      if (layer >= 0) {
        const auto info = directory_->Lookup(pli->media_ssrc);
        auto* encoder =
            EncoderFor(info ? info->source : core::SourceKind::kCamera);
        if (encoder && layer < encoder->layer_count()) {
          encoder->RequestKeyframe(layer);
        }
      }
    }
  }
}

// --- RTCP / policy timers -------------------------------------------------

void Client::OnRtcpTick() {
  std::vector<net::RtcpMessage> messages;
  const Timestamp now = loop_->Now();
  const Ssrc sender = camera_ssrcs_.empty() ? audio_ssrc_ : camera_ssrcs_[0];

  if (auto feedback = feedback_builder_.Build(sender)) {
    messages.push_back(std::move(*feedback));
  }
  for (auto& [ssrc, stream] : received_) {
    auto nacks = stream.jitter.CollectNacks(now);
    if (!nacks.empty()) {
      messages.push_back(net::Nack{sender, ssrc, std::move(nacks)});
    }
    if (stream.jitter.NeedsKeyframe(now) &&
        now - stream.last_pli > kPliMinInterval) {
      stream.last_pli = now;
      messages.push_back(net::Pli{sender, ssrc});
    }
  }
  for (auto& m : pending_rtcp_) messages.push_back(std::move(m));
  pending_rtcp_.clear();
  if (messages.empty()) return;
  cpu_.AddControlMessage();
  egress_.SendRtcp(messages);
}

void Client::OnPolicyTick() {
  if (config_.mode == ControlMode::kTemplate) {
    ApplyTemplatePolicy();
  } else if (config_.controller_watchdog > TimeDelta::Zero()) {
    // Controller watchdog: a GTBR drought means the controller (or the
    // path to it) is dead. Degrade to the local template policy — the
    // paper's observation that clients without orchestration feedback
    // behave like template-based simulcast, made explicit.
    if (!degraded_ &&
        loop_->Now() - last_gtbr_time_ > config_.controller_watchdog) {
      degraded_ = true;
      degraded_since_ = loop_->Now();
      ++degraded_entries_;
    }
    if (degraded_) ApplyTemplatePolicy();
  }
  MaybeSendSemb(/*force=*/false);
  MaybeProbe();
}

void Client::ApplyGsoTmmbr(const net::GsoTmmbr& request) {
  ++gtbr_received_;
  last_gtbr_time_ = loop_->Now();
  if (degraded_) {
    // The controller is back; its grant supersedes the local fallback.
    degraded_ = false;
    degraded_total_ += loop_->Now() - degraded_since_;
  }
  cpu_.AddControlMessage();
  for (const auto& entry : request.entries) {
    granted_[entry.ssrc] = entry.max_total_bitrate.bitrate();
  }
  if (single_stream_fallback_) {
    // Server-commanded fallback overrides the orchestration: only the
    // lowest camera layer stays enabled, and it always flows.
    for (auto& [ssrc, rate] : granted_) {
      if (ssrc != camera_ssrcs_.back()) rate = DataRate::Zero();
    }
    auto& low = granted_[camera_ssrcs_.back()];
    if (low.IsZero()) low = config_.camera.layers.back().max_bitrate;
  }
  EnforceLocalCongestionLimit();
  // Acknowledge with GTBN (paper §4.3 reliability); echo the entries.
  net::GsoTmmbn ack;
  ack.sender_ssrc = camera_ssrcs_.empty() ? audio_ssrc_ : camera_ssrcs_[0];
  ack.request_id = request.request_id;
  ack.epoch = request.epoch;
  ack.entries = request.entries;
  pending_rtcp_.push_back(std::move(ack));
}

void Client::ApplyTemplatePolicy() {
  const auto decisions = template_policy_.Decide(
      egress_.bwe().target_rate(), participant_count_);
  // Map template decisions to camera layers by resolution.
  for (size_t i = 0; i < config_.camera.layers.size(); ++i) {
    DataRate target = DataRate::Zero();
    for (const auto& decision : decisions) {
      if (decision.resolution == config_.camera.layers[i].resolution) {
        target = decision.bitrate;
        break;
      }
    }
    granted_[camera_ssrcs_[i]] = target;
  }
  // Template stacks drive the screen share locally too: a fixed-rate
  // stream whenever the uplink estimate nominally allows it.
  if (screen_encoder_ && !screen_ssrcs_.empty()) {
    const DataRate uplink = egress_.bwe().target_rate();
    DataRate screen_rate = DataRate::Zero();
    if (uplink > DataRate::MegabitsPerSec(2)) {
      screen_rate = DataRate::MegabitsPerSecF(1.5);
    } else if (uplink > DataRate::MegabitsPerSec(1)) {
      screen_rate = DataRate::KilobitsPerSec(800);
    }
    granted_[screen_ssrcs_[0]] = screen_rate;
  }
  EnforceLocalCongestionLimit();
}

void Client::EnforceLocalCongestionLimit() {
  // Between controller updates the local congestion controller remains
  // authoritative: scale all granted targets down proportionally when the
  // uplink estimate falls below their sum.
  DataRate total;
  for (const auto& [ssrc, rate] : granted_) total += rate;
  const DataRate estimate = egress_.bwe().target_rate();
  double scale = 1.0;
  if (!total.IsZero() && estimate < total) scale = estimate / total;
  for (const auto& [ssrc, rate] : granted_) {
    const int layer = LayerIndexOf(ssrc);
    if (layer < 0) continue;
    const auto info = directory_->Lookup(ssrc);
    auto* encoder =
        EncoderFor(info ? info->source : core::SourceKind::kCamera);
    if (encoder && layer < encoder->layer_count()) {
      encoder->SetLayerTargetBitrate(layer, rate * scale);
    }
  }
}

void Client::MaybeSendSemb(bool force) {
  const Timestamp now = loop_->Now();
  const DataRate estimate = egress_.bwe().ReportedRate();
  const bool time_trigger = now - last_semb_time_ >= kSembTimeTrigger;
  const bool event_trigger =
      !last_semb_sent_.IsZero() &&
      std::abs(estimate.bps() - last_semb_sent_.bps()) >
          static_cast<int64_t>(kSembEventThreshold *
                               static_cast<double>(last_semb_sent_.bps()));
  if (!force && !time_trigger && !event_trigger) return;
  last_semb_time_ = now;
  last_semb_sent_ = estimate;
  net::Semb semb;
  semb.sender_ssrc = camera_ssrcs_.empty() ? audio_ssrc_ : camera_ssrcs_[0];
  semb.bitrate = estimate;
  pending_rtcp_.push_back(std::move(semb));
}

void Client::MaybeProbe() {
  if (!config_.enable_probing) return;
  const Timestamp now = loop_->Now();
  if (!egress_.bwe().WantsProbe(now)) return;
  const int cluster = egress_.StartProbe(now);
  const DataRate probe_rate =
      egress_.bwe().target_rate() * transport::kProbeRateFactor;
  pacer_.SendProbeCluster(cluster, probe_rate, transport::kProbePacketCount,
                          DataSize::Bytes(transport::kProbePacketBytes),
                          [this](std::optional<int> probe) {
                            cpu_.AddPacketProcessed();
                            egress_.SendPadding(*probe);
                          });
}

// --- Failure handling -------------------------------------------------

void Client::ForceKeyframes() {
  if (camera_encoder_) {
    for (size_t i = 0; i < config_.camera.layers.size(); ++i) {
      camera_encoder_->RequestKeyframe(static_cast<int>(i));
    }
  }
  if (screen_encoder_ && config_.screen) {
    for (size_t i = 0; i < config_.screen->layers.size(); ++i) {
      screen_encoder_->RequestKeyframe(static_cast<int>(i));
    }
  }
}

void Client::InjectLayerFault(int layer_index, bool broken) {
  GSO_CHECK(layer_index >= 0 &&
            layer_index < static_cast<int>(camera_layer_fault_.size()));
  camera_layer_fault_[static_cast<size_t>(layer_index)] = broken;
}

void Client::ForceSingleStreamFallback() {
  single_stream_fallback_ = true;
  for (size_t i = 0; i + 1 < camera_ssrcs_.size(); ++i) {
    granted_[camera_ssrcs_[i]] = DataRate::Zero();
  }
  // The fallback stream must flow even if the controller had not granted
  // the low layer: service continuity beats orchestration fidelity here
  // (paper §7 "Design for failure").
  if (!camera_ssrcs_.empty()) {
    auto& low = granted_[camera_ssrcs_.back()];
    if (low.IsZero()) low = config_.camera.layers.back().max_bitrate;
  }
  EnforceLocalCongestionLimit();
}

// --- Introspection ----------------------------------------------------

DataRate Client::current_publish_rate() const {
  DataRate total = camera_encoder_->TotalTargetRate();
  if (screen_encoder_) total += screen_encoder_->TotalTargetRate();
  return total;
}

int64_t Client::TotalFramesDecoded() const {
  int64_t total = 0;
  for (const auto& [_, stream] : received_) {
    total += stream.jitter.frames_decoded();
  }
  return total;
}

int64_t Client::TotalFramesDropped() const {
  int64_t total = 0;
  for (const auto& [_, stream] : received_) {
    total += stream.jitter.frames_dropped();
  }
  return total;
}

int64_t Client::TotalStalledIntervals() const {
  int64_t total = 0;
  for (const auto& [_, view] : views_) {
    total += view.stalls.stalled_interval_count();
  }
  return total;
}

DataRate Client::TotalReceiveRate(Timestamp now) {
  DataRate total;
  for (auto& [_, view] : views_) {
    if (now >= view.ended_at) continue;
    total += view.rate.Rate(now);
  }
  return total;
}

DataRate Client::camera_layer_rate(int layer_index) const {
  return camera_encoder_->layer_target(layer_index);
}

media::SimulatedEncoder* Client::EncoderFor(core::SourceKind kind) {
  return kind == core::SourceKind::kCamera ? camera_encoder_.get()
                                           : screen_encoder_.get();
}

int Client::LayerIndexOf(Ssrc ssrc) const {
  for (size_t i = 0; i < camera_ssrcs_.size(); ++i) {
    if (camera_ssrcs_[i] == ssrc) return static_cast<int>(i);
  }
  for (size_t i = 0; i < screen_ssrcs_.size(); ++i) {
    if (screen_ssrcs_[i] == ssrc) return static_cast<int>(i);
  }
  return -1;
}

std::vector<core::StreamOption> Client::GsoCameraLadder() const {
  std::vector<core::LadderSpec> specs;
  for (const auto& layer : config_.camera.layers) {
    core::LadderSpec spec;
    spec.resolution = layer.resolution;
    spec.max_bitrate = layer.max_bitrate;
    // The fine ladder spans down to ~40% of each layer ceiling (~30% for
    // the smallest, keeping a thumbnail alive on very slow links); coarse
    // devices advertise a single level per resolution.
    const bool smallest = &layer == &config_.camera.layers.back();
    spec.min_bitrate = config_.supports_fine_bitrate
                           ? layer.max_bitrate * (smallest ? 0.3 : 0.4)
                           : layer.max_bitrate;
    spec.levels =
        config_.supports_fine_bitrate ? config_.gso_levels_per_resolution : 1;
    specs.push_back(spec);
  }
  return core::BuildLadder(specs);
}

std::vector<core::StreamOption> Client::GsoScreenLadder() const {
  if (!config_.screen) return {};
  std::vector<core::LadderSpec> specs;
  for (const auto& layer : config_.screen->layers) {
    specs.push_back({layer.resolution, layer.max_bitrate * 0.5,
                     layer.max_bitrate, 3});
  }
  return core::BuildLadder(specs);
}

DataRate Client::CurrentReceiveRate(ClientId publisher,
                                    core::SourceKind kind) {
  const auto it = views_.find(ViewKey{publisher, kind});
  if (it == views_.end()) return DataRate::Zero();
  return it->second.rate.Rate(loop_->Now());
}

void Client::OnViewResumed(ClientId publisher, core::SourceKind kind) {
  const auto it = views_.find(ViewKey{publisher, kind});
  if (it != views_.end() && it->second.ended_at.IsFinite()) {
    views_.erase(it);  // restart accounting for the new segment
  }
}

void Client::OnViewEnded(ClientId publisher, core::SourceKind kind) {
  const auto it = views_.find(ViewKey{publisher, kind});
  if (it == views_.end()) return;
  if (!it->second.ended_at.IsFinite()) it->second.ended_at = loop_->Now();
}

void Client::TrimQoeHistoryBefore(Timestamp t) {
  const int64_t first_kept = PlaybackInterval(t);
  for (auto it = views_.begin(); it != views_.end();) {
    ViewStats& view = it->second;
    if (view.ended_at <= t) {
      // ReceiveReport skips it (window empty) and OnViewResumed restarts
      // the entry fresh, so dropping it is report-neutral.
      it = views_.erase(it);
      continue;
    }
    view.stalls.ForgetBefore(t);
    ++it;
  }
  for (auto it = audio_received_.begin(); it != audio_received_.end();) {
    AudioReceiveState& state = it->second;
    if (state.last_arrival <= t) {
      // Silent since before the window: its active span (which excludes
      // the final partial interval) cannot intersect any report starting
      // at or after `t`, so VoiceStallRate would skip it entirely.
      it = audio_received_.erase(it);
      continue;
    }
    state.received_per_interval.erase(
        state.received_per_interval.begin(),
        state.received_per_interval.lower_bound(first_kept));
    ++it;
  }
  // Reassembly state of long-dead SSRCs. The SSRC allocator is monotone —
  // a departed publisher's ids never come back — and a live stream idle
  // this long restarts cleanly from a keyframe (fresh jitter buffer, PLI
  // clock at zero) if it ever resumes.
  std::erase_if(received_, [t](const auto& entry) {
    return entry.second.last_packet + kDeadStreamIdle <= t;
  });
}

Client::TableSizes Client::table_sizes() const {
  TableSizes sizes;
  sizes.received_streams = received_.size();
  sizes.views = views_.size();
  sizes.audio_received = audio_received_.size();
  for (const auto& [_, state] : audio_received_) {
    sizes.audio_intervals += state.received_per_interval.size();
  }
  for (const auto& [_, view] : views_) {
    sizes.stall_intervals += view.stalls.resident_interval_count();
  }
  return sizes;
}

std::vector<ReceivedStreamStats> Client::ReceiveReport(
    Timestamp session_start, Timestamp session_end) {
  std::vector<ReceivedStreamStats> report;
  for (auto& [key, view] : views_) {
    // A view whose subscription ended stops accruing QoE at that point.
    const Timestamp window_end = std::min(session_end, view.ended_at);
    if (window_end <= session_start) continue;
    view.stalls.OnSessionEnd(window_end);
    ReceivedStreamStats stats;
    stats.publisher = key.owner;
    stats.source = key.source;
    stats.resolution = view.last_resolution;
    stats.frames = view.frames;
    stats.average_framerate =
        view.stalls.AverageFramerate(session_start, window_end);
    stats.stall_rate = view.stalls.StallRate(session_start, window_end);
    stats.average_quality = view.quality.mean();
    const TimeDelta duration = window_end - session_start;
    stats.average_bitrate =
        duration.IsZero() ? DataRate::Zero() : view.bytes / duration;
    report.push_back(stats);
  }
  return report;
}

double Client::VoiceStallRate(Timestamp session_start,
                              Timestamp session_end) const {
  if (audio_received_.empty()) return 0.0;
  const int64_t first = PlaybackInterval(session_start);
  const int64_t last = PlaybackInterval(session_end - TimeDelta::Micros(1));
  if (last < first) return 0.0;
  double sum = 0.0;
  int streams_counted = 0;
  for (const auto& [ssrc, state] : audio_received_) {
    if (!state.first_arrival.IsFinite()) continue;
    const int64_t begin =
        std::max(first, PlaybackInterval(state.first_arrival));
    // A stream that goes permanently silent has *ended* (e.g. the SFU
    // bounds the audio fan-out to the active speakers); only its active
    // span counts as playback, mirroring the paper's "playback intervals".
    // Exclude the partial boundary intervals of the active span: a stream
    // that starts or ends mid-interval has fewer than 50 expected packets
    // there and would read as spuriously stalled.
    const int64_t active_last =
        std::min(last, PlaybackInterval(state.last_arrival) - 1);
    const int64_t active_first = begin + 1;
    if (active_last < active_first) continue;
    ++streams_counted;
    int64_t stalled = 0;
    for (int64_t i = active_first; i <= active_last; ++i) {
      const auto it = state.received_per_interval.find(i);
      const int received = it == state.received_per_interval.end()
                               ? 0
                               : it->second;
      if (received < kVoiceStallMinReceived) ++stalled;
    }
    sum += static_cast<double>(stalled) /
           static_cast<double>(active_last - active_first + 1);
  }
  return streams_counted > 0 ? sum / streams_counted : 0.0;
}

}  // namespace gso::conference
