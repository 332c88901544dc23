// Shared types of the benchmark program: command-line options, the metric
// vocabulary (every end-to-end and per-layer metric name with its unit),
// and the per-run outcome each workload fills in.
#pragma once

#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// rpe_cli binary the serving workloads launch as `serve-tcp`.
  std::string cli;
  /// Directory (inside the checkout) for the server logs.
  std::string log_dir;
  /// Committed records digest the pipeline's records must match.
  std::string digest_file;
};

/// Monotonic clock in nanoseconds / seconds.
inline uint64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}
inline double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports every one of them, each
/// nonzero (a missing one fails the run).
const std::vector<MetricDef>& EndToEndMetrics();

/// Per-layer metrics of the traced run. Every workload reports every one;
/// a layer the workload does not exercise reports 0 with a count of 0.
const std::vector<MetricDef>& LayerMetrics();

/// \brief What one workload run produced.
struct Outcome {
  /// False when an output check failed; `failure` says which.
  bool correct = true;
  std::string failure;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void Fail(const std::string& why) {
    if (correct) failure = why;
    correct = false;
  }
};

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double SelfPeakRssMb();

/// Seeded 64-bit generator (splitmix64) for the workloads' inputs.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

void RunServeWorkload(const Options& options, Outcome* out);
void RunPipelineWorkload(const Options& options, Outcome* out);

}  // namespace perfbench
