#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace perfbench {

double SortedPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n));
  const size_t slot = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return slot >= n ? 0 : n - slot;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = SortedPercentile(samples, 0.5);
  s.max = samples.back();
  for (double v : samples) s.sum += v;
  s.mean = s.sum / static_cast<double>(s.n);
  for (double q : {0.999, 0.99, 0.95, 0.90, 0.75}) {
    if (SamplesBeyond(s.n, q) >= kMinSamplesBeyond) {
      s.tail_q = q;
      s.tail = SortedPercentile(samples, q);
      break;
    }
  }
  return s;
}

double ReportablePercentile(std::vector<double> samples, double q) {
  if (SamplesBeyond(samples.size(), q) < kMinSamplesBeyond) return -1.0;
  std::sort(samples.begin(), samples.end());
  return SortedPercentile(samples, q);
}

std::string FormatSummary(const Summary& s, const std::string& unit) {
  std::ostringstream out;
  out.precision(6);
  out << "p50 " << s.p50 << " " << unit;
  if (s.tail_q > 0.0) {
    out << ", p" << s.tail_q * 100.0 << " " << s.tail << " " << unit;
  }
  out << ", max " << s.max << " " << unit << " (n=" << s.n << ")";
  return out.str();
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

bool LatenessGrows(const std::vector<double>& late_ms_in_send_order,
                   double tolerance_ms) {
  const size_t n = late_ms_in_send_order.size();
  if (n < 10) return false;
  const size_t fifth = n / 5;
  const std::vector<double> head(late_ms_in_send_order.begin(),
                                 late_ms_in_send_order.begin() + fifth);
  const std::vector<double> tail(late_ms_in_send_order.end() - fifth,
                                 late_ms_in_send_order.end());
  return Median(tail) - Median(head) > tolerance_ms;
}

double RateLadder::Rate(size_t k) const {
  return base * std::pow(ratio, static_cast<double>(k));
}

LadderResult SearchLadder(const RateLadder& ladder,
                          const std::function<bool(double)>& passes,
                          size_t budget, size_t retries) {
  LadderResult result;
  const size_t stride = std::max<size_t>(ladder.stride, 1);
  auto run = [&](size_t k) {
    result.tried.push_back(k);
    if (passes(ladder.Rate(k))) return true;
    if (result.retried >= retries) return false;
    ++result.retried;
    return passes(ladder.Rate(k));
  };
  // Coarse ascent: last passing rung and first failing rung.
  bool any_pass = false;
  size_t last_pass = 0;
  size_t first_fail = ladder.rungs;
  for (size_t k = 0; k < ladder.rungs && result.tried.size() < budget;
       k += stride) {
    if (!run(k)) {
      first_fail = k;
      break;
    }
    any_pass = true;
    last_pass = k;
  }
  if (!any_pass) return result;
  // Bisect the rungs between the last coarse pass and the failure (or the
  // top of the ladder).
  size_t fail = std::min(first_fail, ladder.rungs);
  while (fail - last_pass > 1 && result.tried.size() < budget) {
    const size_t mid = last_pass + (fail - last_pass) / 2;
    if (run(mid)) {
      last_pass = mid;
    } else {
      fail = mid;
    }
  }
  result.sustained = ladder.Rate(last_pass);
  return result;
}

// ---------------------------------------------------------------------------
// Self-tests on synthetic samples.

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "perfbench selftest FAILED: " << what << "\n";
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::abs(a - b) <= 1e-9; }

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  const Summary s = Summarize(v);
  Expect(s.n == 1000, "summary counts every sample");
  Expect(Near(s.p50, 500.0), "nearest-rank median of 1..1000 is 500");
  // p99.9 has 1 sample beyond it, p99 has exactly 10: p99 is the tail.
  Expect(Near(s.tail_q, 0.99) && Near(s.tail, 990.0),
         "tail of 1..1000 is p99 = 990");
  Expect(Near(s.max, 1000.0) && Near(s.sum, 500500.0), "max and sum");
  Expect(SamplesBeyond(1000, 0.99) == 10, "10 samples beyond p99 of 1000");
  Expect(SamplesBeyond(999, 0.99) == 9, "9 samples beyond p99 of 999");
  Expect(ReportablePercentile(std::vector<double>(999, 1.0), 0.99) < 0.0,
         "p99 of 999 samples is not reportable");
  Expect(ReportablePercentile(v, 0.99) == 990.0, "p99 of 1000 reportable");
  const Summary few = Summarize({3.0, 1.0, 2.0});
  Expect(few.tail_q == 0.0 && Near(few.p50, 2.0),
         "three samples report a median and no tail");
  const Summary forty = Summarize(std::vector<double>(40, 7.0));
  Expect(Near(forty.tail_q, 0.75), "40 samples support p75 only");
  Expect(Near(Median({4.0, 1.0, 3.0, 2.0}), 2.5), "even-count median");
  Expect(Summarize({}).n == 0, "empty summary");
}

void TestLateness() {
  std::vector<double> steady(1000, 0.02);
  Expect(!LatenessGrows(steady, 0.5), "constant lateness is not growth");
  std::vector<double> jitter;
  for (int i = 0; i < 1000; ++i) jitter.push_back(i % 7 == 0 ? 3.0 : 0.01);
  Expect(!LatenessGrows(jitter, 0.5), "isolated stalls are not growth");
  std::vector<double> falling_behind;
  for (int i = 0; i < 1000; ++i) falling_behind.push_back(0.01 * i);
  Expect(LatenessGrows(falling_behind, 0.5),
         "lateness rising 10 ms over the phase is growth");
  Expect(!LatenessGrows({5.0, 9.0}, 0.5), "too few sends to judge");
}

void TestLadder() {
  const RateLadder ladder{1000.0, 1.1, 30, 3};
  Expect(Near(ladder.Rate(0), 1000.0) && Near(ladder.Rate(2), 1210.0),
         "geometric rungs");
  for (double capacity : {999.0, 1000.0, 1500.0, 5000.0, 1e9}) {
    size_t calls = 0;
    const auto r = SearchLadder(
        ladder,
        [&](double rate) {
          ++calls;
          return rate <= capacity;
        },
        /*budget=*/100, /*retries=*/2);
    double expect = 0.0;
    for (size_t k = 0; k < ladder.rungs; ++k) {
      if (ladder.Rate(k) <= capacity) expect = ladder.Rate(k);
    }
    Expect(Near(r.sustained, expect),
           "ladder finds the highest rung within capacity " +
               std::to_string(capacity));
    Expect(calls == r.tried.size() + r.retried,
           "every rung tried is recorded, and every retry counted");
    Expect(r.retried <= 2, "retries stay within their cap");
    Expect(calls <= ladder.rungs / ladder.stride + 3,
           "coarse ascent plus bisection stays short");
  }
  // A budget stops the search early and reports the best rung seen.
  const auto capped = SearchLadder(
      ladder, [](double) { return true; }, /*budget=*/2, /*retries=*/0);
  Expect(capped.tried.size() == 2 && Near(capped.sustained, ladder.Rate(3)),
         "budget caps the rungs run");
  // A rung that fails once (a stall) and passes when run again does not
  // end the ascent; without retries it does.
  for (size_t retries : {0, 1}) {
    bool stalled = false;
    const auto r = SearchLadder(
        ladder,
        [&](double rate) {
          if (Near(rate, ladder.Rate(3)) && !stalled) {
            stalled = true;
            return false;
          }
          return rate <= 5000.0;
        },
        /*budget=*/100, retries);
    const double top = ladder.Rate(16);  // highest rung <= 5000
    Expect(retries == 0 ? Near(r.sustained, ladder.Rate(2))
                        : Near(r.sustained, top),
           "a failure confirmed only by a retry ends the ascent (retries " +
               std::to_string(retries) + ")");
  }
}

}  // namespace

int RunStatsSelfTests() {
  g_failures = 0;
  TestPercentiles();
  TestLateness();
  TestLadder();
  return g_failures;
}

}  // namespace perfbench
