#include "serving/metrics_export.h"

#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/simd.h"
#include "obs/trace.h"

namespace rpe {
namespace {

using obs::Sample;

}  // namespace

void AppendServiceSamples(const ShardedMonitorService::Stats& stats,
                          std::vector<obs::Sample>* out) {
  const MonitorService::Stats& t = stats.total;
  const IngestStats& in = stats.ingest;
  // Table-label ordering note: table_value() in the smoke/exit scripts
  // matches row labels by regex and takes the FIRST hit, so rows whose
  // label is a substring of another ("decisions" / "decisions/sec") must
  // keep the shorter label first.
  out->push_back(Sample::GaugeSample("rpe_shards",
                                     static_cast<double>(stats.shards),
                                     "shards"));
  out->push_back(Sample::CounterSample(
      "rpe_sessions_opened_total", static_cast<double>(t.sessions_opened),
      "sessions opened"));
  out->push_back(Sample::CounterSample(
      "rpe_sessions_completed_total",
      static_cast<double>(t.sessions_completed), "sessions completed"));
  out->push_back(Sample::CounterSample("rpe_decisions_total",
                                       static_cast<double>(t.decisions),
                                       "decisions"));
  out->push_back(Sample::CounterSample(
      "rpe_observations_scored_total",
      static_cast<double>(t.observations_scored), "observations scored"));
  out->push_back(Sample::GaugeSample(
      "rpe_model_generation", static_cast<double>(t.model_generation),
      "model generation"));
  out->push_back(Sample::GaugeSample(
      "rpe_model_generation_min",
      static_cast<double>(stats.min_model_generation)));
  out->push_back(Sample::GaugeSample(
      "rpe_model_generation_max",
      static_cast<double>(stats.max_model_generation)));
  out->push_back(Sample::GaugeSample("rpe_replay_latency_p50_ms",
                                     t.p50_replay_ms,
                                     "p50 replay latency (ms)"));
  out->push_back(Sample::GaugeSample("rpe_replay_latency_p95_ms",
                                     t.p95_replay_ms,
                                     "p95 replay latency (ms)"));
  out->push_back(Sample::GaugeSample("rpe_decisions_per_sec",
                                     t.decisions_per_sec, "decisions/sec"));
  out->push_back(Sample::GaugeSample("rpe_observations_per_sec",
                                     t.observations_per_sec,
                                     "observations/sec"));
  out->push_back(Sample::GaugeSample("rpe_scoring_time_seconds",
                                     t.scoring_time_sec));
  out->push_back(Sample::CounterSample("rpe_ingest_pushed_total",
                                       static_cast<double>(in.pushed),
                                       "records pushed"));
  out->push_back(Sample::CounterSample("rpe_ingest_dropped_total",
                                       static_cast<double>(in.dropped),
                                       "records dropped"));
  out->push_back(Sample::CounterSample("rpe_ingest_drained_total",
                                       static_cast<double>(in.drained),
                                       "records drained"));
  out->push_back(Sample::CounterSample("rpe_ingest_batches_total",
                                       static_cast<double>(in.batches)));
  out->push_back(Sample::CounterSample("rpe_retrains_total",
                                       static_cast<double>(in.retrains),
                                       "retrains published"));
  out->push_back(Sample::CounterSample(
      "rpe_retrain_failures_total",
      static_cast<double>(in.retrain_failures), "retrain failures"));
  out->push_back(Sample::CounterSample(
      "rpe_retrain_recoveries_total",
      static_cast<double>(in.retrain_recoveries), "retrain recoveries"));
  out->push_back(Sample::CounterSample(
      "rpe_snapshot_write_failures_total",
      static_cast<double>(in.snapshot_write_failures),
      "snapshot write failures"));
  out->push_back(Sample::CounterSample(
      "rpe_snapshot_write_retries_total",
      static_cast<double>(in.snapshot_write_retries),
      "snapshot write retries"));
  out->push_back(Sample::CounterSample(
      "rpe_publish_failures_total", static_cast<double>(in.publish_failures),
      "publish failures"));
  out->push_back(Sample::CounterSample(
      "rpe_publish_retries_total", static_cast<double>(in.publish_retries),
      "publish retries"));
  out->push_back(Sample::GaugeSample("rpe_ingest_queue_depth",
                                     static_cast<double>(in.queue_size),
                                     "ingest queue"));
  out->push_back(Sample::GaugeSample("rpe_training_corpus_size",
                                     static_cast<double>(in.corpus_size),
                                     "training corpus"));
  out->push_back(Sample::GaugeSample("rpe_last_retrain_ms",
                                     in.last_retrain_ms,
                                     "last retrain (ms)"));
  out->push_back(Sample::GaugeSample(
      "rpe_last_swap_generation",
      static_cast<double>(in.last_swap_generation)));
}

int RegisterServiceCollector(obs::MetricsRegistry* registry,
                             ShardedMonitorService* service) {
  return registry->AddCollector([service](std::vector<Sample>* out) {
    AppendServiceSamples(service->GetStats(), out);
    for (size_t i = 0; i < service->num_shards(); ++i) {
      out->push_back(Sample::GaugeSample(
          "rpe_shard_sessions_open",
          static_cast<double>(service->shard(i).num_open_sessions()), "",
          "shard=\"" + std::to_string(i) + "\""));
    }
  });
}

int RegisterFailPointCollector(obs::MetricsRegistry* registry) {
  return registry->AddCollector([](std::vector<Sample>* out) {
    for (const FailPointSnapshot& fp : FailPoints::Snapshot()) {
      const std::string label = "name=\"" + fp.name + "\"";
      out->push_back(Sample::CounterSample("rpe_failpoint_hits_total",
                                           static_cast<double>(fp.hits), "",
                                           label));
      out->push_back(Sample::CounterSample("rpe_failpoint_trips_total",
                                           static_cast<double>(fp.trips),
                                           "", label));
    }
  });
}

int RegisterSimdCollector(obs::MetricsRegistry* registry) {
  return registry->AddCollector([](std::vector<Sample>* out) {
    out->push_back(Sample::GaugeSample(
        "rpe_simd_tier_info", 1.0, "",
        "tier=\"" + std::string(simd::TierName(simd::ActiveTier())) +
            "\""));
  });
}

int RegisterTracerCollector(obs::MetricsRegistry* registry) {
  return registry->AddCollector([](std::vector<Sample>* out) {
    const obs::Tracer& tracer = obs::Tracer::Global();
    out->push_back(Sample::CounterSample(
        "rpe_trace_spans_total",
        static_cast<double>(tracer.events_recorded())));
    out->push_back(Sample::CounterSample(
        "rpe_slow_requests_total",
        static_cast<double>(tracer.slow_requests())));
  });
}

}  // namespace rpe
