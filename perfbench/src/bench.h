// Shared harness for the repository benchmark: wall timers, the percentile
// rule, and the result record every workload fills in.
//
// Each workload runs in three parts:
//  - set-up, repeated a few times and reported as the median (setup_s);
//  - a checked span of fixed virtual length (or a fixed solve count) whose
//    deterministic outputs and work counts repeat exactly for a seed;
//  - the timed phase, which continues past the checked span until the
//    requested wall seconds and the minimum sample counts are both met.
// Times are medians and percentiles of many per-step samples, never totals,
// so one descheduled step cannot move a reported figure.
#ifndef GSO_PERFBENCH_BENCH_H_
#define GSO_PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gso::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// A percentile is reported only when at least ten samples lie beyond it:
// p90 needs 100 samples, p99 needs 1000. Workloads extend their timed
// phase until the percentiles they report are backed by enough samples.
inline size_t MinSamplesFor(double percentile) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - percentile / 100.0) - 1e-9));
}

// Nearest-rank percentile of `samples` (sorted in place).
inline double Percentile(std::vector<double>& samples, double percentile) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(percentile / 100.0 *
                                static_cast<double>(samples.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

inline double Median(std::vector<double> samples) {
  return Percentile(samples, 50.0);
}

struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  // 0 = a count or a single measurement
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
};

// Everything one run reports. `checks` are the deterministic outputs the
// runner compares against the recorded values; `failures` lists invariant
// violations found while running (each also counts in `failed`).
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> checks;
  std::vector<std::string> failures;
  // Workload-specific figures printed in the text report (name -> metric);
  // the end-to-end metrics in `metrics` are the ones the gate reads.
  std::map<std::string, Metric> report;

  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  void Report(const std::string& name, double value, const std::string& unit,
              uint64_t samples = 0) {
    report[name] = Metric{value, unit, samples};
  }
  void Fail(const std::string& what) {
    failures.push_back(what);
    ++failed;
  }
};

// Median of the set-up repetitions: every workload sets up this many times
// and keeps the last instance for the timed phase.
inline constexpr int kSetupRepeats = 7;

Result RunMeetingMesh(const Options& options);
Result RunControllerReplay(const Options& options);
Result RunFleetStorm(const Options& options);

}  // namespace gso::perfbench

#endif  // GSO_PERFBENCH_BENCH_H_
