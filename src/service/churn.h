// Churn-storm load generator for the orchestration service.
//
// Drives a fleet the way production load does: ramps to a target number of
// concurrent conferences, retires each at the end of a drawn lifetime and
// backfills (join/leave churn), and periodically sweeps a fault wave over
// a fraction of the live fleet — link flaps, control-channel loss bursts,
// controller crashes, and participant join/leave inside meetings, all
// scripted through sim::FaultPlan and the scenario helpers. Every decision
// is drawn from one seeded Rng on the virtual clock, so a storm is exactly
// reproducible.
#ifndef GSO_SERVICE_CHURN_H_
#define GSO_SERVICE_CHURN_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "service/service.h"

namespace gso::service {

struct ChurnConfig {
  // Fleet size the storm maintains (subject to the service's admission
  // bound — set target above max_conferences to exercise rejects).
  int target_concurrent = 50;
  // Conference lifetimes draw uniformly from [0.5, 1.5] * mean_lifetime.
  TimeDelta mean_lifetime = TimeDelta::Seconds(30);
  // Every wave_period, wave_fraction of the live fleet gets one fault
  // episode each (at least one victim per wave).
  TimeDelta wave_period = TimeDelta::Seconds(5);
  double wave_fraction = 0.05;
  uint64_t seed = 7;
};

struct ChurnStats {
  uint64_t joins = 0;   // conferences admitted
  uint64_t leaves = 0;  // conferences retired at end of lifetime
  uint64_t waves = 0;
  uint64_t link_flaps = 0;
  uint64_t loss_episodes = 0;
  uint64_t controller_outages = 0;
  uint64_t participant_churn = 0;  // in-meeting leave+join pairs
};

class ChurnStorm {
 public:
  ChurnStorm(OrchestrationService* service, const ChurnConfig& config);

  // Advances the service by `duration`, interleaving churn decisions every
  // virtual second: retire expired conferences, top back up to the target
  // with GSO conferences, and inject a fault wave when one is due.
  void RunFor(TimeDelta duration);

  const ChurnStats& stats() const { return stats_; }

 private:
  // Per-conference bookkeeping the service doesn't carry.
  struct Tracked {
    Timestamp ends_at;
    std::vector<uint32_t> live_clients;  // current participant ids
    uint32_t next_client = 0;            // fresh id for mid-meeting joins
  };

  void Step();
  void Retire();
  void TopUp();
  void InjectWave();
  void InjectFault(uint64_t id, Tracked& tracked);

  OrchestrationService* service_;
  ChurnConfig config_;
  Rng rng_;
  std::map<uint64_t, Tracked> tracked_;
  Timestamp next_wave_;
  ChurnStats stats_;
};

}  // namespace gso::service

#endif  // GSO_SERVICE_CHURN_H_
