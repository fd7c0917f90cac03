// Simulated network link.
//
// A Link models one direction of a network path: a droptail queue drained
// at the link capacity, followed by propagation delay, random jitter, and
// random loss (Bernoulli or Gilbert-Elliott bursty loss). Capacity and loss
// can be changed at virtual runtime to script scenarios such as the paper's
// Fig. 7 bandwidth steps and Table 2 slow-link matrix.
#ifndef GSO_SIM_LINK_H_
#define GSO_SIM_LINK_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "sim/event_loop.h"

namespace gso::sim {

// The bytes of one datagram. Up to kInline bytes — every serialized RTP
// packet — live inside the object, so carrying them costs no allocation;
// larger datagrams (RTCP compounds, gossip) take one heap block of exactly
// their size. Converts to std::span<const uint8_t> for the parsers.
class PacketBytes {
 public:
  static constexpr size_t kInline = 40;

  PacketBytes() = default;
  explicit PacketBytes(std::span<const uint8_t> bytes) { Assign(bytes); }
  PacketBytes(std::initializer_list<uint8_t> bytes)
      : PacketBytes(std::span<const uint8_t>(bytes.begin(), bytes.size())) {}
  PacketBytes(const PacketBytes& other) { Assign(other); }
  PacketBytes(PacketBytes&& other) noexcept { Steal(other); }
  PacketBytes& operator=(const PacketBytes& other) {
    if (this != &other) Assign(other);
    return *this;
  }
  PacketBytes& operator=(PacketBytes&& other) noexcept {
    if (this != &other) {
      Free();
      Steal(other);
    }
    return *this;
  }
  ~PacketBytes() { Free(); }

  // Discards the contents and returns `size` writable bytes to fill.
  uint8_t* Reset(size_t size) {
    Free();
    size_ = static_cast<uint32_t>(size);
    if (size_ <= kInline) return storage_.bytes;
    storage_.heap = new uint8_t[size];
    return storage_.heap;
  }

  const uint8_t* data() const {
    return size_ <= kInline ? storage_.bytes : storage_.heap;
  }
  size_t size() const { return size_; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size_; }
  uint8_t operator[](size_t i) const { return data()[i]; }

 private:
  void Assign(std::span<const uint8_t> bytes) {
    uint8_t* out = Reset(bytes.size());
    // An empty span's data() may be null: memcpy(_, null, 0) is still UB.
    if (!bytes.empty()) std::memcpy(out, bytes.data(), bytes.size());
  }
  // Takes `other`'s bytes, or its heap block, whole: a fixed-size copy of
  // the storage, with no branch on where the bytes live.
  void Steal(PacketBytes& other) {
    storage_ = other.storage_;
    size_ = other.size_;
    other.size_ = 0;
  }
  void Free() {
    if (size_ > kInline) delete[] storage_.heap;
    size_ = 0;
  }

  union Storage {
    uint8_t bytes[kInline];
    uint8_t* heap;  // when size_ > kInline
  };
  Storage storage_{};
  uint32_t size_ = 0;
};

// A packet on the wire. `data` holds the serialized protocol bytes;
// `wire_size` is what the link charges for it (payload + UDP/IP overhead).
struct Packet {
  PacketBytes data;
  DataSize wire_size;
  Timestamp first_send_time;  // stamped by the original sender
};

struct LinkConfig {
  DataRate capacity = DataRate::MegabitsPerSec(100);
  TimeDelta propagation_delay = TimeDelta::Millis(20);
  // Zero-mean jitter; each packet gets |N(0, stddev)| extra delay.
  TimeDelta jitter_stddev = TimeDelta::Zero();
  // Independent (Bernoulli) loss probability applied per packet.
  double loss_rate = 0.0;
  // Optional Gilbert-Elliott bursty loss. When enabled it replaces the
  // Bernoulli model: the chain sits in Good (loss ~ 0) or Bad (loss high).
  bool gilbert_elliott = false;
  double ge_p_good_to_bad = 0.01;
  double ge_p_bad_to_good = 0.3;
  double ge_loss_in_bad = 0.7;
  // Droptail bound expressed as maximum queueing delay.
  TimeDelta max_queue_delay = TimeDelta::Millis(300);
  // If false, delivery order is forced monotone even under jitter.
  bool allow_reordering = true;

  // --- Named presets -----------------------------------------------------
  // Construct configs through these (or designated member tweaks on top of
  // them) instead of positional brace initializers, which break silently
  // when a field is inserted.

  // Over-provisioned datacenter interconnect: inter-node links of the
  // media-server mesh. Deep queue, no loss.
  static LinkConfig Backbone(
      DataRate capacity = DataRate::MegabitsPerSec(1000),
      TimeDelta propagation_delay = TimeDelta::Millis(30)) {
    LinkConfig config;
    config.capacity = capacity;
    config.propagation_delay = propagation_delay;
    config.max_queue_delay = TimeDelta::Millis(500);
    return config;
  }

  // Last-mile access with mild jitter, as on a home wifi hop.
  static LinkConfig Wifi(DataRate capacity = DataRate::MegabitsPerSec(20),
                         TimeDelta propagation_delay = TimeDelta::Millis(20)) {
    LinkConfig config;
    config.capacity = capacity;
    config.propagation_delay = propagation_delay;
    config.jitter_stddev = TimeDelta::Millis(2);
    return config;
  }

  // Bursty lossy path: Gilbert-Elliott loss on top of the given capacity.
  // `bad_fraction` is the stationary probability of the Bad state; the
  // chain keeps the default recovery rate and in-Bad loss probability.
  static LinkConfig Lossy(DataRate capacity, double bad_fraction = 0.032,
                          TimeDelta propagation_delay = TimeDelta::Millis(40)) {
    LinkConfig config;
    config.capacity = capacity;
    config.propagation_delay = propagation_delay;
    config.gilbert_elliott = true;
    // Stationary P(Bad) = p_gb / (p_gb + p_bg); solve for p_gb at the
    // default p_bg so callers can state the loss regime directly.
    config.ge_p_good_to_bad =
        config.ge_p_bad_to_good * bad_fraction / (1.0 - bad_fraction);
    return config;
  }
};

struct LinkStats {
  int64_t packets_sent = 0;
  int64_t packets_delivered = 0;
  int64_t packets_dropped_queue = 0;
  int64_t packets_dropped_loss = 0;
  int64_t packets_dropped_down = 0;  // sent while the link was down
  DataSize bytes_delivered;

  double LossFraction() const {
    return packets_sent > 0
               ? static_cast<double>(packets_dropped_queue +
                                     packets_dropped_loss +
                                     packets_dropped_down) /
                     static_cast<double>(packets_sent)
               : 0.0;
  }
};

// In-flight packets wait in the link's own slab of slots (with a free
// list); each send schedules one event whose closure captures only
// {this, slot}, so it fits std::function's inline storage, and delivery
// order is the event loop's (when, seq) order alone. A send the loop drops
// at scheduling time (cancelled owner) claims no slot; a delivery whose
// owner is cancelled while it is in flight never fires, and its packet
// stays in its slot until the link dies.
class Link {
 public:
  using Sink = std::function<void(const Packet&)>;

  Link(EventLoop* loop, LinkConfig config, Rng rng, std::string name = "link");

  // Installs the receiver; packets surviving the link arrive here.
  void SetSink(Sink sink) { sink_ = std::move(sink); }

  // Enqueues a packet at the current virtual time.
  void Send(Packet packet);

  // Runtime reconfiguration for scripted scenarios.
  void SetCapacity(DataRate capacity) { config_.capacity = capacity; }
  void SetLossRate(double loss) { config_.loss_rate = loss; }
  void SetJitter(TimeDelta stddev) { config_.jitter_stddev = stddev; }
  void SetPropagationDelay(TimeDelta d) { config_.propagation_delay = d; }
  // Enables/disables Gilbert-Elliott bursty loss; `bad_fraction` is the
  // stationary P(Bad) as in LinkConfig::Lossy.
  void SetBurstLoss(bool enabled, double bad_fraction = 0.032) {
    config_.gilbert_elliott = enabled;
    if (enabled) {
      config_.ge_p_good_to_bad =
          config_.ge_p_bad_to_good * bad_fraction / (1.0 - bad_fraction);
    }
  }
  // Full outage: while down, every offered packet is dropped (counted in
  // packets_dropped_down); packets already in flight still arrive.
  void SetUp(bool up) { up_ = up; }
  bool is_up() const { return up_; }

  const LinkConfig& config() const { return config_; }
  const LinkStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }

  // Instantaneous queue backlog delay if a packet were enqueued now.
  TimeDelta CurrentQueueDelay() const;

  // Packets sent and not yet delivered.
  size_t in_flight() const { return slots_.size() - free_slots_.size(); }

 private:
  bool DrawLoss();
  // Delivery event of the packet waiting in `slot`.
  void Deliver(uint32_t slot);

  EventLoop* loop_;
  LinkConfig config_;
  Rng rng_;
  std::string name_;
  Sink sink_;
  LinkStats stats_;
  Timestamp busy_until_ = Timestamp::Zero();
  Timestamp last_delivery_ = Timestamp::Zero();
  bool ge_in_bad_state_ = false;
  bool up_ = true;
  // In-flight packets by slot; `live` is false for the free ones.
  struct Slot {
    Packet packet;
    bool live = false;
  };
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace gso::sim

#endif  // GSO_SIM_LINK_H_
