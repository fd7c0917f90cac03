// Deterministic random number generation.
//
// Every stochastic component in the library draws from an explicitly seeded
// Rng so simulations are reproducible run-to-run and across platforms
// (we avoid std::*_distribution whose output is implementation-defined).
#ifndef GSO_COMMON_RNG_H_
#define GSO_COMMON_RNG_H_

#include <cmath>
#include <cstdint>

namespace gso {

// xoshiro256** by Blackman & Vigna — fast, high quality, tiny state, and
// fully specified so sequences are identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) { Seed(seed); }

  void Seed(uint64_t seed) {
    // SplitMix64 seeding as recommended by the xoshiro authors.
    uint64_t z = seed;
    for (auto& s : state_) {
      z += 0x9e3779b97f4a7c15ull;
      uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      s = x ^ (x >> 31);
    }
  }

  uint64_t NextUint64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
    if (range == 0) return static_cast<int64_t>(NextUint64());  // full range
    return lo + static_cast<int64_t>(NextUint64() % range);
  }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  bool Bernoulli(double p) { return NextDouble() < p; }

  // Standard normal via Box-Muller (deterministic given the stream).
  double Normal(double mean = 0.0, double stddev = 1.0) {
    if (have_cached_normal_) {
      have_cached_normal_ = false;
      return mean + stddev * cached_normal_;
    }
    double u1 = NextDouble();
    double u2 = NextDouble();
    while (u1 <= 1e-12) u1 = NextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_normal_ = r * std::sin(theta);
    have_cached_normal_ = true;
    return mean + stddev * r * std::cos(theta);
  }

  // Exponential with the given mean (mean = 1/lambda).
  double Exponential(double mean) {
    double u = NextDouble();
    while (u <= 1e-12) u = NextDouble();
    return -mean * std::log(u);
  }

  // Fork a statistically independent child stream; used to give each
  // simulated entity its own stream so entity insertion order does not
  // perturb unrelated entities' randomness.
  Rng Fork() { return Rng(NextUint64() ^ 0xd1b54a32d192ed03ull); }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool have_cached_normal_ = false;
};

}  // namespace gso

#endif  // GSO_COMMON_RNG_H_
