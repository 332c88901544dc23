// perfbench: the repository benchmark's measuring program (built and
// invoked by perfbench/run.py).
//
//   perfbench --workload <serve_step1|pipeline_tpc>
//                    --seed N --seconds S --trace 0|1
//                    --cli path/to/rpe_cli --log-dir DIR
//                    --digest-file perfbench/pipeline_tpc.digest
//   perfbench --selftest
//
// Every run first self-tests the percentile / lateness / ladder logic,
// records its host, runs the workload, checks its outputs, and prints as
// its last stdout line one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1). A
// failed check prints the reason to stderr and exits 1 without a result.
#include <sys/resource.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.h"
#include "common/simd.h"
#include "stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"request_p50_ms", "ms"},
      {"request_p90_ms", "ms"},
      {"selection_l1", "L1"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"client.send_us", "us"},
      {"client.rtt_us", "us"},
      {"client.rtt_p99_us", "us"},
      {"loopback.residual_us", "us"},
      {"wire.decode_us", "us"},
      {"wire.encode_us", "us"},
      {"wire.frames", "count"},
      {"serving.open_us", "us"},
      {"serving.advance_us", "us"},
      {"serving.steps", "count"},
      {"ingest.records", "count"},
      {"ingest.shed", "count"},
      {"ingest.dropped", "count"},
      {"trainer.retrain_s", "s"},
      {"trainer.retrains", "count"},
      {"request_p99_ms", "ms"},
      {"failed_frac", "ratio"},
      {"publish_lag_s", "s"},
      {"throughput_per_s", "1/s"},
      {"load.late_p50_ms", "ms"},
      {"load.late_max_ms", "ms"},
      {"workload.build_s", "s"},
      {"optimizer.plan_ms", "ms"},
      {"optimizer.plan_p99_ms", "ms"},
      {"exec.execute_s", "s"},
      {"exec.query_p50_ms", "ms"},
      {"exec.query_max_s", "s"},
      {"exec.slowest_share", "ratio"},
      {"exec.queries", "count"},
      {"selection.record_ms", "ms"},
      {"selection.records", "count"},
      {"selection.select_us", "us"},
      {"mart.fit_s", "s"},
      {"mart.fits", "count"},
      {"harness.evaluate_s", "s"},
      {"pipeline_s", "s"},
      {"train_s", "s"},
      {"records_per_s", "1/s"},
      {"pipeline.layer_coverage", "ratio"},
      {"obs.trace_overhead", "ratio"},
  };
  return kMetrics;
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

namespace {

std::string LoadAvg() {
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  in >> a >> b >> c;
  return a + " " + b + " " + c;
}

std::string JsonNumber(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

int Usage() {
  std::cerr << "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --cli RPE_CLI --log-dir DIR --digest-file FILE | "
               "--selftest\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool selftest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      selftest_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--cli") {
      options.cli = value;
    } else if (key == "--log-dir") {
      options.log_dir = value;
    } else if (key == "--digest-file") {
      options.digest_file = value;
    } else {
      return Usage();
    }
  }

  const int selftest_failures = RunStatsSelfTests();
  if (selftest_failures > 0) {
    std::cerr << selftest_failures << " perfbench self-test(s) failed\n";
    return 1;
  }
  if (selftest_only) {
    std::cout << "perfbench self-tests passed\n";
    return 0;
  }
  const bool serve = options.workload == "serve_step1";
  const bool pipeline = options.workload == "pipeline_tpc";
  if ((!serve && !pipeline) || options.seconds <= 0 ||
      (serve && (options.cli.empty() || options.log_dir.empty())) ||
      (pipeline && options.digest_file.empty())) {
    return Usage();
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "perfbench refuses a " << PERFBENCH_BUILD_TYPE
              << " build; configure with CMAKE_BUILD_TYPE=Release\n";
    return 1;
  }

  const std::string load_before = LoadAvg();
  std::cout << "workload " << options.workload << " seed " << options.seed
            << " seconds " << options.seconds << " trace " << options.trace
            << "\n";
  Outcome outcome;
  if (serve) {
    RunServeWorkload(options, &outcome);
  } else {
    RunPipelineWorkload(options, &outcome);
  }
  std::cout << "host: nproc " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", loadavg before " << load_before << ", after " << LoadAvg()
            << ", build " << PERFBENCH_BUILD_TYPE << ", compiler "
            << __VERSION__ << ", simd " << rpe::simd::KernelReport() << "\n";
  if (!outcome.correct) {
    std::cerr << "perfbench: check failed: " << outcome.failure << "\n";
    return 1;
  }

  const auto& defs = options.trace ? LayerMetrics() : EndToEndMetrics();
  std::ostringstream json;
  json << "{\"correct\": true, \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    const auto it = outcome.metrics.find(defs[i].name);
    double value = it == outcome.metrics.end() ? 0.0 : it->second;
    if (!options.trace && !(value > 0.0 && std::isfinite(value))) {
      std::cerr << "perfbench: end-to-end metric " << defs[i].name
                << " is missing, not positive or not finite\n";
      return 1;
    }
    if (!std::isfinite(value)) value = 0.0;
    std::cout << "metric " << defs[i].name << " = " << JsonNumber(value)
              << " " << defs[i].unit << "\n";
    json << (i > 0 ? ", " : "") << "\"" << defs[i].name
         << "\": {\"value\": " << JsonNumber(value) << ", \"unit\": \""
         << defs[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
