#include "sim/link.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace gso::sim {

Link::Link(EventLoop* loop, LinkConfig config, Rng rng, std::string name)
    : loop_(loop),
      config_(config),
      rng_(rng),
      name_(std::move(name)) {
  GSO_CHECK(loop_ != nullptr);
}

TimeDelta Link::CurrentQueueDelay() const {
  const Timestamp now = loop_->Now();
  return busy_until_ > now ? busy_until_ - now : TimeDelta::Zero();
}

bool Link::DrawLoss() {
  if (config_.gilbert_elliott) {
    // Advance the two-state chain one step per packet.
    if (ge_in_bad_state_) {
      if (rng_.Bernoulli(config_.ge_p_bad_to_good)) ge_in_bad_state_ = false;
    } else {
      if (rng_.Bernoulli(config_.ge_p_good_to_bad)) ge_in_bad_state_ = true;
    }
    const double p = ge_in_bad_state_ ? config_.ge_loss_in_bad : 0.0;
    return rng_.Bernoulli(p);
  }
  return config_.loss_rate > 0.0 && rng_.Bernoulli(config_.loss_rate);
}

void Link::Send(Packet packet) {
  ++stats_.packets_sent;
  if (!up_) {
    ++stats_.packets_dropped_down;
    return;
  }
  const Timestamp now = loop_->Now();

  // Droptail: reject when the backlog already exceeds the queue bound.
  if (CurrentQueueDelay() > config_.max_queue_delay) {
    ++stats_.packets_dropped_queue;
    return;
  }

  // Serialize at link capacity behind any queued packets.
  const TimeDelta tx_time = packet.wire_size / config_.capacity;
  const Timestamp start = std::max(now, busy_until_);
  busy_until_ = start + tx_time;

  if (DrawLoss()) {
    ++stats_.packets_dropped_loss;
    return;
  }

  TimeDelta jitter = TimeDelta::Zero();
  if (!config_.jitter_stddev.IsZero()) {
    jitter = TimeDelta::Micros(static_cast<int64_t>(
        std::abs(rng_.Normal(0.0, static_cast<double>(
                                      config_.jitter_stddev.us())))));
  }

  Timestamp delivery = busy_until_ + config_.propagation_delay + jitter;
  if (!config_.allow_reordering && delivery < last_delivery_) {
    delivery = last_delivery_;
  }
  last_delivery_ = delivery;

  // The slot is claimed only once the loop has accepted the delivery.
  const uint32_t slot = free_slots_.empty()
                            ? static_cast<uint32_t>(slots_.size())
                            : free_slots_.back();
  if (!loop_->At(delivery, [this, slot] { Deliver(slot); })) return;
  if (slot == slots_.size()) {
    slots_.emplace_back();
  } else {
    free_slots_.pop_back();
  }
  slots_[slot].packet = std::move(packet);
  slots_[slot].live = true;
}

void Link::Deliver(uint32_t slot) {
  GSO_CHECK(slot < slots_.size() && slots_[slot].live);
  // Moved out and freed before the sink runs: the sink may send on this
  // link again.
  const Packet packet = std::move(slots_[slot].packet);
  slots_[slot].live = false;
  free_slots_.push_back(slot);
  ++stats_.packets_delivered;
  stats_.bytes_delivered += packet.wire_size;
  if (sink_) sink_(packet);
}

}  // namespace gso::sim
