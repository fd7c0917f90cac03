#include "service/gossip.h"

#include <cstring>
#include <string>
#include <utility>

#include "common/logging.h"
#include "transport/egress.h"

namespace gso::service {
namespace {

// How often each agent broadcasts its load summary.
constexpr TimeDelta kPeriod = TimeDelta::Millis(500);
// First ack-wait; doubles per retransmit (exponential backoff).
constexpr TimeDelta kAckTimeout = TimeDelta::Millis(120);
// Retransmits after the initial send before the summary is abandoned
// (counted as a timeout; the next periodic summary supersedes it anyway).
constexpr int kMaxRetries = 3;
// An agent that has heard nothing from a peer for this long suspects it.
constexpr TimeDelta kSuspectTimeout = TimeDelta::Millis(1500);

// Explicit little-endian wire format, independent of host byte order so
// digests over gossip outcomes mean the same thing on every platform.
constexpr uint8_t kTypeSummary = 1;
constexpr uint8_t kTypeAck = 2;

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

// type | from | seq | occupancy | queue_depth | queue_p99 bits
constexpr size_t kSummaryBytes = 1 + 4 + 8 + 4 + 4 + 8;
// type | from | seq
constexpr size_t kAckBytes = 1 + 4 + 8;

std::vector<uint8_t> EncodeSummary(int from, uint64_t seq,
                                   const ShardLoadSample& sample) {
  std::vector<uint8_t> out;
  out.reserve(kSummaryBytes);
  out.push_back(kTypeSummary);
  PutU32(out, static_cast<uint32_t>(from));
  PutU64(out, seq);
  PutU32(out, sample.occupancy);
  PutU32(out, sample.queue_depth);
  uint64_t bits;
  std::memcpy(&bits, &sample.queue_p99_us, sizeof(bits));
  PutU64(out, bits);
  return out;
}

std::vector<uint8_t> EncodeAck(int from, uint64_t seq) {
  std::vector<uint8_t> out;
  out.reserve(kAckBytes);
  out.push_back(kTypeAck);
  PutU32(out, static_cast<uint32_t>(from));
  PutU64(out, seq);
  return out;
}

}  // namespace

GossipFabric::GossipFabric(sim::EventLoop* loop, int num_shards,
                           GossipConfig config, LoadSource source)
    : loop_(loop),
      num_shards_(num_shards),
      config_(config),
      source_(std::move(source)) {
  GSO_CHECK(num_shards_ >= 1);
  agents_.resize(static_cast<size_t>(num_shards_));
  for (Agent& agent : agents_) {
    agent.views.resize(static_cast<size_t>(num_shards_));
    agent.pending.resize(static_cast<size_t>(num_shards_));
  }
  // One directed link per ordered pair, Rng forked in (from, to) order so
  // the loss streams are a pure function of the seed and the pair.
  Rng seeder(config_.seed);
  links_.resize(static_cast<size_t>(num_shards_ * num_shards_));
  for (int from = 0; from < num_shards_; ++from) {
    for (int to = 0; to < num_shards_; ++to) {
      Rng rng = seeder.Fork();
      if (from == to) continue;
      auto link = std::make_unique<sim::Link>(
          loop_, config_.link, rng,
          "gossip:" + std::to_string(from) + ">" + std::to_string(to));
      link->SetSink([this, from, to](const sim::Packet& packet) {
        HandlePacket(from, to, packet.data);
      });
      links_[static_cast<size_t>(from * num_shards_ + to)] = std::move(link);
    }
  }
}

void GossipFabric::Start() {
  if (num_shards_ < 2) return;  // nothing to gossip with
  loop_->Every(kPeriod, [this] {
    for (int shard = 0; shard < num_shards_; ++shard) Broadcast(shard);
    return true;
  });
}

void GossipFabric::SetAgentAlive(int shard, bool alive) {
  Agent& agent = agents_[static_cast<size_t>(shard)];
  if (agent.alive == alive) return;
  agent.alive = alive;
  // Crash wipes the agent's volatile protocol state both ways: a dead
  // agent retransmits nothing, and a revived one neither trusts stale
  // views nor instantly suspects peers it has not had time to hear.
  for (Pending& pending : agent.pending) pending = Pending{};
  if (alive) {
    for (ShardView& view : agent.views) {
      view = ShardView{};
      view.last_heard = loop_->Now();
    }
  }
}

const ShardView& GossipFabric::view(int observer, int peer) {
  RefreshSuspicion(observer, peer);
  return agents_[static_cast<size_t>(observer)]
      .views[static_cast<size_t>(peer)];
}

int GossipFabric::SuspectCount(int shard) {
  int count = 0;
  for (int observer = 0; observer < num_shards_; ++observer) {
    if (observer == shard) continue;
    if (!agents_[static_cast<size_t>(observer)].alive) continue;
    if (view(observer, shard).suspected) ++count;
  }
  return count;
}

int GossipFabric::AliveAgents() const {
  int count = 0;
  for (const Agent& agent : agents_) count += agent.alive ? 1 : 0;
  return count;
}

sim::Link* GossipFabric::link(int from, int to) {
  if (from == to) return nullptr;
  GSO_CHECK(from >= 0 && from < num_shards_ && to >= 0 && to < num_shards_);
  return links_[static_cast<size_t>(from * num_shards_ + to)].get();
}

uint64_t GossipFabric::PacketsDropped() const {
  uint64_t dropped = 0;
  for (const auto& link : links_) {
    if (link == nullptr) continue;
    const sim::LinkStats& stats = link->stats();
    dropped += static_cast<uint64_t>(stats.packets_dropped_loss +
                                     stats.packets_dropped_down +
                                     stats.packets_dropped_queue);
  }
  return dropped;
}

void GossipFabric::Broadcast(int from) {
  Agent& agent = agents_[static_cast<size_t>(from)];
  if (!agent.alive) return;
  const ShardLoadSample sample = source_(from);
  const uint64_t seq = agent.next_seq++;
  const std::vector<uint8_t> payload = EncodeSummary(from, seq, sample);
  for (int to = 0; to < num_shards_; ++to) {
    if (to == from) continue;
    // A fresh summary supersedes any unacked one: the retransmit budget
    // resets and the stale payload is dropped (its ack, if it ever comes,
    // is treated as acking an older seq and ignored). A summary still
    // unacked at supersession time has timed out — with exponential
    // backoff the later retry timers land past the broadcast period, so
    // this is the common expiry path, not the in-timer budget check.
    Pending& pending = agent.pending[static_cast<size_t>(to)];
    if (pending.seq != 0) ++stats_.timeouts;
    pending.seq = seq;
    pending.retries = 0;
    pending.payload = payload;
    ++stats_.summaries_sent;
    SendSummary(from, to, payload, seq);
  }
}

void GossipFabric::SendSummary(int from, int to,
                               const std::vector<uint8_t>& payload,
                               uint64_t seq) {
  transport::SendDatagram(*link(from, to), loop_->Now(), payload);
  ArmRetry(from, to, seq, agents_[static_cast<size_t>(from)]
                              .pending[static_cast<size_t>(to)]
                              .retries);
}

void GossipFabric::ArmRetry(int from, int to, uint64_t seq, int attempt) {
  // Exponential backoff: attempt k waits kAckTimeout * 2^k.
  const TimeDelta wait = kAckTimeout * (int64_t{1} << attempt);
  loop_->After(wait, [this, from, to, seq, attempt] {
    Agent& agent = agents_[static_cast<size_t>(from)];
    if (!agent.alive) return;
    Pending& pending = agent.pending[static_cast<size_t>(to)];
    // Stale timer: the summary was acked, superseded, or already
    // retransmitted by a later timer.
    if (pending.seq != seq || pending.retries != attempt) return;
    if (pending.retries >= kMaxRetries) {
      ++stats_.timeouts;
      pending = Pending{};
      return;
    }
    ++pending.retries;
    ++stats_.retries;
    SendSummary(from, to, pending.payload, seq);
  });
}

void GossipFabric::HandlePacket(int from, int to,
                                std::span<const uint8_t> data) {
  Agent& receiver = agents_[static_cast<size_t>(to)];
  if (!receiver.alive) return;  // dead shards drop ingress
  // Every field is read from wire bytes: a packet whose size, type or
  // sender field is wrong is dropped and counted, never trusted.
  const bool summary = data.size() == kSummaryBytes && data[0] == kTypeSummary;
  const bool ack = data.size() == kAckBytes && data[0] == kTypeAck;
  if ((!summary && !ack) || GetU32(&data[1]) != static_cast<uint32_t>(from)) {
    ++stats_.malformed;
    GSO_LOG(kWarning) << "gossip: malformed packet (" << data.size()
                      << " bytes) on link " << from << ">" << to;
    return;
  }
  const uint64_t seq = GetU64(&data[5]);
  if (summary) {
    ShardView& view = receiver.views[static_cast<size_t>(from)];
    ++stats_.delivered;
    // Out-of-order retransmits must not roll the view backwards.
    if (seq > view.seq) {
      view.seq = seq;
      view.occupancy = GetU32(&data[13]);
      view.queue_depth = GetU32(&data[17]);
      uint64_t bits = GetU64(&data[21]);
      std::memcpy(&view.queue_p99_us, &bits, sizeof(bits));
    }
    view.last_heard = loop_->Now();
    view.suspected = false;
    // Ack every delivery, even duplicates — the first ack may have died on
    // the reverse path.
    transport::SendDatagram(*link(to, from), loop_->Now(),
                            EncodeAck(to, seq));
    return;
  }
  ++stats_.acks_delivered;
  Pending& pending = receiver.pending[static_cast<size_t>(from)];
  // Acks for superseded summaries clear nothing; the pending (newer)
  // summary still needs its own ack.
  if (pending.seq != 0 && seq >= pending.seq) pending = Pending{};
}

void GossipFabric::RefreshSuspicion(int observer, int peer) {
  if (observer == peer) return;
  Agent& agent = agents_[static_cast<size_t>(observer)];
  if (!agent.alive) return;
  ShardView& view = agent.views[static_cast<size_t>(peer)];
  if (view.suspected) return;
  if (loop_->Now() - view.last_heard > kSuspectTimeout) {
    view.suspected = true;
    ++stats_.suspicions;
  }
}

}  // namespace gso::service
