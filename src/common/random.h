// Deterministic pseudo-random generation used by all data / workload
// generators. A fixed-seed xoshiro-style engine keeps every experiment
// reproducible across runs and platforms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rpe {

/// \brief Fast deterministic 64-bit PRNG (splitmix64-seeded xorshift128+).
class Rng {
 public:
  explicit Rng(uint64_t seed = 42);

  /// Uniform in [0, 2^64).
  uint64_t Next();
  /// Uniform in [0, n). Requires n > 0.
  uint64_t NextUInt(uint64_t n);
  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);
  /// Uniform double in [0, 1).
  double NextDouble();
  /// Standard normal via Box-Muller.
  double NextGaussian();
  /// Bernoulli(p).
  bool NextBool(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextUInt(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  uint64_t s0_;
  uint64_t s1_;
  bool have_gauss_ = false;
  double gauss_ = 0.0;
};

/// \brief Zipfian distribution over {1..n} with parameter z, matching the
/// Microsoft TPC-D/H skew generator referenced by the paper ([1]): z = 0 is
/// uniform, z = 1 classic Zipf, z = 2 heavily skewed. Sampling inverts a
/// precomputed CDF by binary search; a guide table over the CDF narrows
/// the search to the few entries the uniform draw can land on, so a draw
/// is O(1) expected. Requires n < 2^32.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double z);

  /// Draw a value in [1, n].
  uint64_t Next(Rng* rng) const;

  uint64_t n() const { return n_; }
  double z() const { return z_; }

  /// Probability mass of value v (1-based).
  double Pmf(uint64_t v) const;

 private:
  uint64_t n_;
  double z_;
  std::vector<double> cdf_;  // cdf_[i] = P(value <= i+1)
  // guide_[j] = first i with cdf_[i] >= j / G (clamped to n - 1), for the
  // power of two G = guide_scale_ >= n.
  std::vector<uint32_t> guide_;
  double guide_scale_ = 1.0;
};

}  // namespace rpe
