// Paper-pipeline workload, in process through the public API of workload,
// optimizer, exec, selection, mart and harness: build the TPC workloads of
// PaperWorkloadConfigs(), plan + execute every query and featurize its
// pipelines into PipelineRecords, train the selectors leave-one-workload-
// out (3/6-estimator pools x static/dynamic features), and evaluate the
// eleven Figure 5 policies. Output checks: the records digest equals the
// committed one, and Figure 5's order holds.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <sstream>

#include "bench.h"
#include "exec/executor.h"
#include "harness/metrics.h"
#include "harness/runner.h"
#include "optimizer/planner.h"
#include "selection/selector.h"
#include "stats.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

/// Setup repetitions (BuildWorkload of every config); setup_s is their
/// median.
constexpr int kSetupRepeats = 3;

/// The Figure 5 experiment's MART parameters: 100 boosting iterations of
/// 30-leaf trees, learning rate 0.1 (frozen with the workload).
rpe::MartParams Fig5Params() {
  rpe::MartParams params;
  params.num_trees = 100;
  params.tree.max_leaves = 30;
  params.learning_rate = 0.1;
  return params;
}

std::vector<rpe::WorkloadConfig> TpcConfigs() {
  std::vector<rpe::WorkloadConfig> out;
  for (const rpe::WorkloadConfig& c : rpe::PaperWorkloadConfigs()) {
    if (c.kind == rpe::WorkloadKind::kTpch ||
        c.kind == rpe::WorkloadKind::kTpcds) {
      out.push_back(c);
    }
  }
  return out;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Latency passes: each executes every query once, two before the
/// pipeline and two after it, and a query's latency is its fastest
/// execution. The host's speed drifts over seconds, so executions spread
/// over the run find its fast periods where back-to-back ones share one
/// period.
constexpr int kLatencyPasses = 4;
/// Only the first pass executes a query that took kRepeatMs or more there:
/// such a query (about 2% of them here, with some 40% of the execution
/// time) is far beyond the gated p90 after one execution.
constexpr double kRepeatMs = 50.0;

/// One plan + execute + featurize, in ms (the layers only when traced).
struct QueryTiming {
  double total_ms = 0.0, plan_ms = 0.0, exec_ms = 0.0, record_ms = 0.0;
};

/// Plan, execute and featurize one query (RunWorkload's per-query path),
/// appending its records to `records`. `traced` adds the per-layer clock
/// reads. False when the plan or the execution failed.
bool RunOne(const rpe::Workload& workload, rpe::Planner* planner,
            const rpe::QuerySpec& spec, bool traced,
            std::vector<rpe::PipelineRecord>* records, QueryTiming* t) {
  const rpe::RunOptions options;
  const uint64_t t0 = NowNs();
  auto plan = planner->Plan(spec);
  const uint64_t t1 = traced ? NowNs() : 0;
  if (!plan.ok()) return false;
  auto run = rpe::ExecutePlan(**plan, *workload.catalog, options.exec);
  const uint64_t t2 = traced ? NowNs() : 0;
  if (!run.ok()) return false;
  rpe::QueryRunResult result = std::move(run).ValueOrDie();
  result.plan = plan->get();
  for (const rpe::Pipeline& pipeline : result.pipelines) {
    rpe::PipelineView view{&result, &pipeline};
    rpe::PipelineRecord record;
    if (rpe::MakeRecord(view, workload.config.name, spec.name, "", &record,
                        options.min_observations)) {
      records->push_back(std::move(record));
    }
  }
  const uint64_t t3 = NowNs();
  t->total_ms = static_cast<double>(t3 - t0) * 1e-6;
  if (traced) {
    t->plan_ms = static_cast<double>(t1 - t0) * 1e-6;
    t->exec_ms = static_cast<double>(t2 - t1) * 1e-6;
    t->record_ms = static_cast<double>(t3 - t2) * 1e-6;
  }
  return true;
}

/// One statistics store and planner per database (RunWorkload's set-up).
struct PlannerFor {
  explicit PlannerFor(const rpe::Workload& w)
      : card(w.catalog.get()),
        planner(w.catalog.get(), &card, rpe::RunOptions().planner) {}
  rpe::CardinalityEstimator card;
  rpe::Planner planner;
};

/// The pipeline's execution: every query once, configs in `order`.
struct ExecPass {
  std::vector<std::vector<rpe::PipelineRecord>> records;  ///< per config
  std::vector<QueryTiming> queries;
  uint64_t attempted = 0, failed = 0;
  double wall_s = 0.0;
};

ExecPass Execute(const std::vector<rpe::Workload>& workloads,
                 const std::vector<size_t>& order, bool traced) {
  ExecPass pass;
  pass.records.resize(workloads.size());
  const double t_start = NowS();
  for (size_t w : order) {
    PlannerFor p(workloads[w]);
    for (const rpe::QuerySpec& spec : workloads[w].queries) {
      ++pass.attempted;
      QueryTiming t;
      if (!RunOne(workloads[w], &p.planner, spec, traced, &pass.records[w],
                  &t)) {
        ++pass.failed;
        continue;
      }
      pass.queries.push_back(t);
    }
  }
  pass.wall_s = NowS() - t_start;
  return pass;
}

/// Per-query latencies, in canonical query order (config by config).
struct LatencyPhase {
  std::vector<std::vector<rpe::PipelineRecord>> records;  ///< first pass
  std::vector<double> first_ms;   ///< the first pass's execution
  std::vector<double> query_ms;   ///< fastest untraced execution
  std::vector<double> warm_ms;    ///< the same, first pass left out
  std::vector<double> traced_ms;  ///< fastest traced execution
  std::vector<double> pass_s;     ///< wall time of each pass
  uint64_t attempted = 0, failed = 0;
};

/// One latency pass, configs in `order`.
void LatencyPass(const std::vector<rpe::Workload>& workloads,
                 const std::vector<size_t>& order, bool traced,
                 LatencyPhase* phase) {
  const bool first = phase->pass_s.empty();
  if (first) {
    size_t n = 0;
    for (const rpe::Workload& w : workloads) n += w.queries.size();
    const double inf = std::numeric_limits<double>::infinity();
    phase->records.resize(workloads.size());
    phase->first_ms.assign(n, inf);
    phase->query_ms.assign(n, inf);
    phase->warm_ms.assign(n, inf);
    phase->traced_ms.assign(n, inf);
  }
  std::vector<size_t> offset(workloads.size(), 0);
  for (size_t w = 1; w < workloads.size(); ++w) {
    offset[w] = offset[w - 1] + workloads[w - 1].queries.size();
  }
  std::vector<rpe::PipelineRecord> discard;
  const double t0 = NowS();
  for (size_t w : order) {
    PlannerFor p(workloads[w]);
    for (size_t q = 0; q < workloads[w].queries.size(); ++q) {
      const size_t i = offset[w] + q;
      if (!first && !(phase->first_ms[i] < kRepeatMs)) continue;
      discard.clear();
      QueryTiming t;
      ++phase->attempted;
      if (!RunOne(workloads[w], &p.planner, workloads[w].queries[q], traced,
                  first ? &phase->records[w] : &discard, &t)) {
        ++phase->failed;
        continue;
      }
      if (first) phase->first_ms[i] = t.total_ms;
      double& best = traced ? phase->traced_ms[i] : phase->query_ms[i];
      best = std::min(best, t.total_ms);
      if (!traced && !first) {
        phase->warm_ms[i] = std::min(phase->warm_ms[i], t.total_ms);
      }
    }
  }
  phase->pass_s.push_back(NowS() - t0);
}

/// The finite entries of `v` (queries that ran in the passes concerned).
std::vector<double> Ran(const std::vector<double>& v) {
  std::vector<double> out;
  for (double x : v) {
    if (std::isfinite(x)) out.push_back(x);
  }
  return out;
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

}  // namespace

void RunPipelineWorkload(const Options& options, Outcome* out) {
  const std::vector<rpe::WorkloadConfig> configs = TpcConfigs();

  // 1. Set-up: BuildWorkload for every config, kSetupRepeats times.
  std::vector<double> setup_s;
  std::vector<rpe::Workload> workloads;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    workloads.clear();
    const double t0 = NowS();
    for (const rpe::WorkloadConfig& c : configs) {
      auto built = rpe::BuildWorkload(c);
      if (!built.ok()) {
        return out->Fail("BuildWorkload: " + built.status().ToString());
      }
      workloads.push_back(std::move(built).ValueOrDie());
    }
    setup_s.push_back(NowS() - t0);
  }
  std::cout << "setup: BuildWorkload x" << configs.size() << " in "
            << FormatSummary(Summarize(setup_s), "s") << "\n";

  // The seed only permutes the execution order of the (fixed, paper-seeded)
  // workloads; records are evaluated in canonical config order, so every
  // output — and the records digest — must be order-independent.
  std::vector<size_t> order(configs.size());
  std::iota(order.begin(), order.end(), 0);
  {
    SeededRng rng(options.seed);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Next() % i]);
    }
  }

  // 2. Two latency passes, the pipeline (execute → records → LOWO training
  //    → Figure 5), two more latency passes. The traced run times the
  //    pipeline's layers, and leads with one more untraced pass (the cold
  //    first executions after set-up); its other four run untraced,
  //    traced | pipeline | traced, untraced, so that the two minima
  //    obs.trace_overhead compares are both warm and spread alike over
  //    the run.
  const int passes = kLatencyPasses + (options.trace ? 1 : 0);
  auto traced_pass = [&](int k) {
    return options.trace && (k == 2 || k == 3);
  };
  LatencyPhase latency;
  for (int k = 0; k < passes - kLatencyPasses / 2; ++k) {
    LatencyPass(workloads, order, traced_pass(k), &latency);
  }
  const double t_pipeline = NowS();
  const ExecPass pass = Execute(workloads, order, options.trace);
  std::vector<rpe::PipelineRecord> records;
  std::vector<size_t> first(configs.size());
  for (size_t w = 0; w < configs.size(); ++w) {
    first[w] = records.size();
    records.insert(records.end(), pass.records[w].begin(),
                   pass.records[w].end());
  }
  const size_t n = records.size();
  if (n == 0) return out->Fail("the workloads produced no records");

  struct PoolConfig {
    const char* name;
    std::vector<size_t> pool;
    bool dynamic;
    std::vector<size_t> choices;
  };
  std::vector<PoolConfig> pools = {
      {"static3", rpe::PoolOriginalThree(), false, std::vector<size_t>(n)},
      {"dynamic3", rpe::PoolOriginalThree(), true, std::vector<size_t>(n)},
      {"static6", rpe::PoolSix(), false, std::vector<size_t>(n)},
      {"dynamic6", rpe::PoolSix(), true, std::vector<size_t>(n)},
  };
  std::vector<double> fit_s, select_us;
  const rpe::MartParams params = Fig5Params();
  for (size_t hold = 0; hold < configs.size(); ++hold) {
    const size_t lo = first[hold];
    const size_t hi = lo + pass.records[hold].size();
    if (lo == hi) continue;
    std::vector<rpe::PipelineRecord> train;
    train.reserve(n - (hi - lo));
    train.insert(train.end(), records.begin(), records.begin() + lo);
    train.insert(train.end(), records.begin() + hi, records.end());
    for (PoolConfig& pc : pools) {
      const double t0 = NowS();
      const rpe::EstimatorSelector selector =
          rpe::EstimatorSelector::Train(train, pc.pool, pc.dynamic, params);
      fit_s.push_back(NowS() - t0);
      for (size_t i = lo; i < hi; ++i) {
        const uint64_t s0 = options.trace ? NowNs() : 0;
        pc.choices[i] = selector.SelectForRecord(records[i]);
        if (options.trace) {
          select_us.push_back(static_cast<double>(NowNs() - s0) * 1e-3);
        }
      }
    }
  }
  auto oracle = [&](const std::vector<size_t>& pool) {
    std::vector<size_t> c;
    c.reserve(n);
    for (const auto& r : records) c.push_back(rpe::BestInPool(r, pool));
    return c;
  };
  const double t_eval = NowS();
  struct Policy {
    std::string name;
    std::vector<size_t> choices;
    double l1 = 0.0;
  };
  std::vector<Policy> policies = {
      {"DNE", rpe::FixedChoice(records, size_t(rpe::EstimatorKind::kDne))},
      {"TGN", rpe::FixedChoice(records, size_t(rpe::EstimatorKind::kTgn))},
      {"LUO", rpe::FixedChoice(records, size_t(rpe::EstimatorKind::kLuo))},
      {"static3", pools[0].choices},
      {"dynamic3", pools[1].choices},
      {"static6", pools[2].choices},
      {"dynamic6", pools[3].choices},
      {"oracle3", oracle(rpe::PoolOriginalThree())},
      {"oracle6", oracle(rpe::PoolSix())},
      {"SAFE", rpe::FixedChoice(records, size_t(rpe::EstimatorKind::kSafe))},
      {"PMAX", rpe::FixedChoice(records, size_t(rpe::EstimatorKind::kPmax))},
  };
  for (Policy& p : policies) {
    p.l1 = rpe::EvaluateChoices(records, p.choices).avg_l1;
  }
  const double t_end = NowS();
  const double evaluate_s = t_end - t_eval;
  const double pipeline_s = t_end - t_pipeline;
  for (int k = passes - kLatencyPasses / 2; k < passes; ++k) {
    LatencyPass(workloads, order, traced_pass(k), &latency);
  }
  const std::vector<double> query_ms = Ran(latency.query_ms);

  // 3. Output checks.
  std::ostringstream fig5;
  for (const Policy& p : policies) fig5 << " " << p.name << "=" << p.l1;
  std::cout << "fig5 avg L1:" << fig5.str() << "\n";
  const double best_prior =
      std::min({policies[0].l1, policies[1].l1, policies[2].l1});
  const double dyn6 = policies[6].l1;
  const double oracle6 = policies[8].l1;
  if (!(oracle6 <= dyn6 && dyn6 < best_prior)) {
    return out->Fail("Figure 5 order violated: oracle6 " +
                     std::to_string(oracle6) + ", dynamic6 " +
                     std::to_string(dyn6) + ", best single prior " +
                     std::to_string(best_prior));
  }
  std::cout << "check: Figure 5 order oracle6 <= dynamic6 < best prior holds\n";
  const uint64_t digest = Fnv1a(rpe::RecordsToCsv(records));
  {
    std::vector<rpe::PipelineRecord> again;
    for (const auto& w : latency.records) {
      again.insert(again.end(), w.begin(), w.end());
    }
    if (Fnv1a(rpe::RecordsToCsv(again)) != digest) {
      return out->Fail(
          "records differ between the first latency pass and the pipeline");
    }
  }
  {
    std::ifstream in(options.digest_file);
    uint64_t expected = 0;
    if (!(in >> expected)) {
      return out->Fail("cannot read the expected digest from " +
                       options.digest_file);
    }
    if (expected != digest) {
      return out->Fail("records digest " + std::to_string(digest) +
                       " differs from the committed " +
                       std::to_string(expected) + " (" + options.digest_file +
                       ")");
    }
    std::cout << "check: records digest " << digest << " equals "
              << options.digest_file << "\n";
  }
  if (pass.failed * 4 > pass.attempted) {
    return out->Fail("more than a quarter of the queries failed");
  }

  // 4. Metrics.
  out->attempted = latency.attempted + pass.attempted;
  out->failed = latency.failed + pass.failed;
  const Summary q = Summarize(query_ms);
  const double p90 = ReportablePercentile(query_ms, 0.90);
  if (p90 < 0.0) return out->Fail("too few queries for a p90");
  const double train_s = Sum(fit_s);
  const double records_per_s = static_cast<double>(n) / pass.wall_s;
  std::ostringstream pass_s;
  for (double v : latency.pass_s) pass_s << " " << v;
  const size_t once = static_cast<size_t>(std::count_if(
      latency.first_ms.begin(), latency.first_ms.end(),
      [](double v) { return !(v < kRepeatMs); }));
  std::cout << "query (plan+execute+featurize, fastest "
            << (options.trace ? "untraced " : "") << "execution of "
            << passes << " passes" << (options.trace ? " / 3" : "")
            << "; passes took" << pass_s.str() << " s; " << once
            << " queries of " << kRepeatMs
            << " ms or more ran in the first only): "
            << FormatSummary(q, "ms") << ", p90 " << p90 << " ms\n"
            << "pipeline_s: " << pipeline_s << " s (execute " << pass.wall_s
            << " s, train_s " << train_s << " s over " << fit_s.size()
            << " Train calls, evaluate " << evaluate_s << " s)\n"
            << "records: " << n << " from " << pass.attempted
            << " queries, records_per_s " << records_per_s << "\n"
            << "selection_l1 (dynamic, 6 est.): " << dyn6 << "\n"
            << "failed_frac: " << out->failed << "/" << out->attempted
            << " query executions (failed plans or executions, latency "
               "passes and pipeline)\n";

  if (!options.trace) {
    out->metrics["setup_s"] = Median(setup_s);
    out->metrics["request_p50_ms"] = q.p50;
    out->metrics["request_p90_ms"] = p90;
    out->metrics["selection_l1"] = dyn6;
    out->metrics["peak_rss_mb"] = SelfPeakRssMb();
    return;
  }

  std::vector<double> plan_ms, exec_ms, record_ms;
  for (const QueryTiming& t : pass.queries) {
    plan_ms.push_back(t.plan_ms);
    exec_ms.push_back(t.exec_ms);
    record_ms.push_back(t.record_ms);
  }
  const Summary ex = Summarize(exec_ms);
  const double plan_s = Sum(plan_ms) * 1e-3;
  const double exec_s = Sum(exec_ms) * 1e-3;
  const double record_s = Sum(record_ms) * 1e-3;
  const double select_s = Sum(select_us) * 1e-6;
  const double layers_s = plan_s + exec_s + record_s + train_s + select_s +
                          evaluate_s;
  // pipeline_s starts after set-up, so BuildWorkload is not one of its
  // layers; it is set-up's (setup_s, workload.build_s).
  std::cout << "trace: plan " << plan_s << " + execute " << exec_s
            << " + featurize " << record_s << " + fit " << train_s
            << " + select " << select_s << " + evaluate " << evaluate_s
            << " = " << layers_s << " s vs pipeline_s " << pipeline_s
            << " s (coverage " << layers_s / pipeline_s << "; build "
            << Median(setup_s) << " s is set-up, outside pipeline_s)\n";
  // Over the queries both kinds of pass executed.
  std::vector<double> paired_untraced, paired_traced;
  for (size_t i = 0; i < latency.traced_ms.size(); ++i) {
    if (std::isfinite(latency.traced_ms[i])) {
      paired_untraced.push_back(latency.warm_ms[i]);
      paired_traced.push_back(latency.traced_ms[i]);
    }
  }
  const Summary untraced = Summarize(paired_untraced);
  const Summary traced = Summarize(paired_traced);
  std::cout << "trace: query latency traced " << FormatSummary(traced, "ms")
            << " vs untraced " << FormatSummary(untraced, "ms")
            << " (fastest of 2 warm passes each)\n";
  auto& m = out->metrics;
  m["workload.build_s"] = Median(setup_s);
  m["optimizer.plan_ms"] = plan_s * 1e3;
  m["optimizer.plan_p99_ms"] = ReportablePercentile(plan_ms, 0.99);
  m["exec.execute_s"] = exec_s;
  m["exec.query_p50_ms"] = ex.p50;
  m["exec.query_max_s"] = ex.max * 1e-3;
  m["exec.slowest_share"] = ex.max * 1e-3 / exec_s;
  m["exec.queries"] = static_cast<double>(exec_ms.size());
  m["selection.record_ms"] = Sum(record_ms) / record_ms.size();
  m["selection.records"] = static_cast<double>(n);
  m["selection.select_us"] = Summarize(select_us).mean;
  m["mart.fit_s"] = train_s / static_cast<double>(fit_s.size());
  m["mart.fits"] = static_cast<double>(fit_s.size());
  m["harness.evaluate_s"] = evaluate_s;
  m["pipeline_s"] = pipeline_s;
  m["train_s"] = train_s;
  m["records_per_s"] = records_per_s;
  m["throughput_per_s"] = static_cast<double>(n) / pipeline_s;
  m["request_p99_ms"] = ReportablePercentile(query_ms, 0.99);
  m["failed_frac"] = static_cast<double>(pass.failed) /
                     static_cast<double>(pass.attempted);
  m["pipeline.layer_coverage"] = layers_s / pipeline_s;
  m["obs.trace_overhead"] = traced.p50 / untraced.p50 - 1.0;
}

}  // namespace perfbench
