#include "common/random.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/logging.h"

namespace rpe {

namespace {
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97f4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t state = seed;
  s0_ = SplitMix64(&state);
  s1_ = SplitMix64(&state);
  if (s0_ == 0 && s1_ == 0) s1_ = 1;
}

uint64_t Rng::Next() {
  uint64_t x = s0_;
  const uint64_t y = s1_;
  s0_ = y;
  x ^= x << 23;
  s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
  return s1_ + y;
}

uint64_t Rng::NextUInt(uint64_t n) {
  RPE_DCHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  while (true) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  RPE_DCHECK(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextUInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

double Rng::NextGaussian() {
  if (have_gauss_) {
    have_gauss_ = false;
    return gauss_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  gauss_ = r * std::sin(theta);
  have_gauss_ = true;
  return r * std::cos(theta);
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

ZipfGenerator::ZipfGenerator(uint64_t n, double z) : n_(n), z_(z) {
  RPE_CHECK_GT(n, 0u);
  RPE_CHECK_LE(n, uint64_t{UINT32_MAX});
  RPE_CHECK_GE(z, 0.0);
  cdf_.resize(n);
  double total = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i), z);
    cdf_[i - 1] = total;
  }
  for (auto& c : cdf_) c /= total;

  // guide_[j] is where the search below would land for u = j / G (the
  // first i with cdf_[i] >= j / G, else n - 1). That landing point is
  // monotone in u, so every u in [j / G, (j + 1) / G) lands in
  // [guide_[j], guide_[j + 1]]. G is a power of two, so u * G and j / G
  // are exact and each u falls in exactly the bucket it belongs to.
  const uint64_t buckets = std::bit_ceil(n);
  guide_scale_ = static_cast<double>(buckets);
  guide_.resize(buckets + 1);
  uint32_t i = 0;
  for (uint64_t j = 0; j <= buckets; ++j) {
    const double t = static_cast<double>(j) / guide_scale_;
    while (i + 1 < n && cdf_[i] < t) ++i;
    guide_[j] = i;
  }
}

uint64_t ZipfGenerator::Next(Rng* rng) const {
  const double u = rng->NextDouble();
  const size_t bucket = static_cast<size_t>(u * guide_scale_);
  // Binary search for first cdf_[i] >= u, within the guide's bounds.
  size_t lo = guide_[bucket], hi = guide_[bucket + 1];
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo + 1;
}

double ZipfGenerator::Pmf(uint64_t v) const {
  RPE_CHECK_GE(v, 1u);
  RPE_CHECK_LE(v, n_);
  if (v == 1) return cdf_[0];
  return cdf_[v - 1] - cdf_[v - 2];
}

}  // namespace rpe
