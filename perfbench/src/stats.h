// Sample statistics of the benchmark program: percentile summaries that
// never report a tail percentile with fewer than ten samples beyond it,
// open-loop lateness-growth detection, and the fixed-ladder sustained-rate
// search. Pure functions over plain vectors, so selftest.cc can check them
// on synthetic samples before any measurement is trusted.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Samples a percentile needs beyond it before it may be reported.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile (q in (0, 1]) of an ascending-sorted sample.
double SortedPercentile(const std::vector<double>& sorted, double q);

/// Number of samples strictly above the nearest-rank q-th percentile slot.
size_t SamplesBeyond(size_t n, double q);

/// \brief Median + the highest reportable tail percentile of one timing.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  /// Highest of p99.9 / p99 / p95 / p90 / p75 with >= kMinSamplesBeyond
  /// samples beyond it; tail_q == 0 when none qualifies (n < 40).
  double tail_q = 0.0;
  double tail = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double sum = 0.0;
};
Summary Summarize(std::vector<double> samples);

/// The q-th percentile, or a negative value when fewer than
/// kMinSamplesBeyond samples lie beyond it (the caller must then not
/// report it).
double ReportablePercentile(std::vector<double> samples, double q);

/// "p50 1.23 ms, p99 4.56 ms (n=12000)" — the one text form of a timing.
std::string FormatSummary(const Summary& s, const std::string& unit);

/// Median of a small sample (setup repetitions, per-cycle lags); 0 when
/// empty.
double Median(std::vector<double> samples);

/// True when an open-loop generator fell behind and kept falling: the
/// median lateness of the last fifth of the sends (in send order) exceeds
/// the median of the first fifth by more than `tolerance_ms`. A constant
/// lateness (fixed wake-up cost) is not growth.
bool LatenessGrows(const std::vector<double>& late_ms_in_send_order,
                   double tolerance_ms);

/// \brief A fixed geometric rate ladder: rung k runs at base * ratio^k.
struct RateLadder {
  double base = 1000.0;
  double ratio = 1.1;
  size_t rungs = 20;
  /// Rungs skipped per coarse step of the search.
  size_t stride = 3;
  double Rate(size_t k) const;
};

/// \brief Outcome of the sustained-rate search.
struct LadderResult {
  /// Highest passing rung's rate; 0 when rung 0 fails.
  double sustained = 0.0;
  /// Rungs evaluated, in evaluation order.
  std::vector<size_t> tried;
  /// Failed rungs run a second time.
  size_t retried = 0;
};

/// Ascend the ladder in coarse strides until a rung fails (or the top is
/// reached), then bisect the rungs between the last pass and the failure.
/// Assumes pass/fail is monotone in the rate, which a stall can break for
/// one run of a rung: so a failed rung is run once more, for up to
/// `retries` rungs per search, and fails only when it fails twice. `budget`
/// caps the number of rungs run (retries not counted).
LadderResult SearchLadder(const RateLadder& ladder,
                          const std::function<bool(double)>& passes,
                          size_t budget, size_t retries);

/// Run every self-test of this file on synthetic samples; returns the
/// number of failed checks (each printed to stderr).
int RunStatsSelfTests();

}  // namespace perfbench
