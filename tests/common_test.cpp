// Tests for the common utilities: Status/Result, RNG + Zipf, statistics
// and the table printer.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table_printer.h"

namespace rpe {
namespace {

// --- Status / Result --------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad knob");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ("NotFound", Status::CodeName(StatusCode::kNotFound).c_str());
  EXPECT_STREQ("Internal", Status::CodeName(StatusCode::kInternal).c_str());
  EXPECT_STREQ("IOError", Status::CodeName(StatusCode::kIOError).c_str());
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

TEST(ResultTest, HoldsValue) {
  auto r = Half(10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
}

TEST(ResultTest, HoldsError) {
  auto r = Half(3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

Status UsesAssignOrReturn(int x, int* out) {
  RPE_ASSIGN_OR_RETURN(int half, Half(x));
  RPE_ASSIGN_OR_RETURN(int quarter, Half(half));
  *out = quarter;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacroChains) {
  int out = 0;
  EXPECT_TRUE(UsesAssignOrReturn(12, &out).ok());
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(UsesAssignOrReturn(10, &out).ok());  // 5 is odd
}

// --- Rng ---------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, NextUIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUInt(17), 17u);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(4);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.NextGaussian());
  EXPECT_NEAR(Mean(xs), 0.0, 0.03);
  EXPECT_NEAR(StdDev(xs), 1.0, 0.03);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.Shuffle(&w);
  std::multiset<int> sv(v.begin(), v.end()), sw(w.begin(), w.end());
  EXPECT_EQ(sv, sw);
}

// --- Zipf --------------------------------------------------------------

TEST(ZipfTest, ZeroSkewIsUniform) {
  ZipfGenerator zipf(10, 0.0);
  Rng rng(6);
  std::vector<int> counts(11, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) counts[zipf.Next(&rng)]++;
  for (int v = 1; v <= 10; ++v) {
    EXPECT_NEAR(static_cast<double>(counts[v]) / n, 0.1, 0.01);
  }
}

TEST(ZipfTest, HighSkewConcentratesOnHead) {
  ZipfGenerator zipf(1000, 2.0);
  Rng rng(7);
  int head = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Next(&rng) <= 3) ++head;
  }
  // For z=2, P(1)+P(2)+P(3) ~ (1 + 1/4 + 1/9) / zeta(2) ~ 0.83.
  EXPECT_GT(static_cast<double>(head) / n, 0.7);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfGenerator zipf(50, 1.0);
  double total = 0.0;
  for (uint64_t v = 1; v <= 50; ++v) total += zipf.Pmf(v);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, PmfMonotoneDecreasing) {
  ZipfGenerator zipf(20, 1.5);
  for (uint64_t v = 2; v <= 20; ++v) {
    EXPECT_LE(zipf.Pmf(v), zipf.Pmf(v - 1) + 1e-12);
  }
}

/// The CDF inversion ZipfGenerator computes without its guide table:
/// the CDF built by the same loop, then a binary search over all of it.
class ReferenceZipf {
 public:
  ReferenceZipf(uint64_t n, double z) : cdf_(n) {
    double total = 0.0;
    for (uint64_t i = 1; i <= n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i), z);
      cdf_[i - 1] = total;
    }
    for (auto& c : cdf_) c /= total;
  }

  uint64_t Next(Rng* rng) const {
    const double u = rng->NextDouble();
    size_t lo = 0, hi = cdf_.size() - 1;
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

 private:
  std::vector<double> cdf_;
};

TEST(ZipfTest, GuidedDrawsEqualFullBinarySearch) {
  // 2^17 draws for each of the 45 (n, z) pairs: 5.9M draws in all.
  constexpr int kDraws = 1 << 17;
  for (uint64_t n : {1, 2, 3, 5, 25, 150, 1000, 7500, 60000}) {
    for (double z : {0.0, 0.5, 1.0, 1.5, 2.0}) {
      const ZipfGenerator zipf(n, z);
      const ReferenceZipf reference(n, z);
      const uint64_t seed = n * 131 + static_cast<uint64_t>(z * 10);
      Rng rng(seed), reference_rng(seed);
      int mismatches = 0;
      for (int i = 0; i < kDraws; ++i) {
        if (zipf.Next(&rng) != reference.Next(&reference_rng)) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0) << "n=" << n << " z=" << z;
      // Both consumed the same random values.
      EXPECT_EQ(rng.Next(), reference_rng.Next()) << "n=" << n << " z=" << z;
    }
  }
}

// --- stats --------------------------------------------------------------

TEST(StatsTest, MeanVarianceBasics) {
  std::vector<double> xs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(Variance(xs), 1.25);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 25);
}

TEST(StatsTest, PearsonCorrelation) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  std::vector<double> zs = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, zs), -1.0, 1e-12);
  std::vector<double> flat = {3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(xs, flat), 0.0);
}

TEST(StatsTest, LpErrors) {
  std::vector<double> a = {0.0, 1.0};
  std::vector<double> b = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(LpError(a, b, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(LpError(a, b, 2.0), std::sqrt(0.5));
}

TEST(StatsTest, RunningStatsMatchesBatch) {
  std::vector<double> xs = {3.5, -1.0, 2.25, 8.0, 0.0};
  RunningStats rs;
  for (double x : xs) rs.Add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), Mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), Variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), -1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 8.0);
}

// --- table printer -------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"a", "long_header"});
  t.AddRow({"xxxxxx", "1"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| a      | long_header |"), std::string::npos);
  EXPECT_NE(s.find("| xxxxxx | 1           |"), std::string::npos);
}

TEST(TablePrinterTest, Formatting) {
  EXPECT_EQ(TablePrinter::Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::Pct(0.639), "63.9%");
}

// --- crc32 ---------------------------------------------------------------

TEST(Crc32Test, KnownVectorsAndSeedChaining) {
  // The IEEE 802.3 check value; pins the sliced kernel to the reference
  // byte-at-a-time definition.
  const char* check = "123456789";
  EXPECT_EQ(Crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);

  // Chaining through the seed must equal one shot, at every split point
  // (the sliced kernel has 8-byte and tail paths to cover).
  Rng rng(5);
  std::vector<unsigned char> data(1027);
  for (auto& b : data) b = static_cast<unsigned char>(rng.Next() & 0xFF);
  const uint32_t whole = Crc32(data.data(), data.size());
  for (size_t split : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                       size_t{64}, size_t{1000}}) {
    const uint32_t head = Crc32(data.data(), split);
    EXPECT_EQ(Crc32(data.data() + split, data.size() - split, head), whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace rpe
