// Command-line driver for the progress-estimation library:
//
//   rpe_cli run      --kind tpch --queries 200 --scale 10 --zipf 1.0
//                    --tuning partial --seed 1 --out records.csv
//       Build a workload, execute it, and write the pipeline records.
//       `--out x.rpsn` (or --binary) writes a binary record snapshot.
//
//   rpe_cli train    --records records.{csv|rpsn} [--pool three|six|all]
//                    [--trees 200] --out stack.rpsn
//       Train the full selector stack (static + dynamic) and persist it as
//       a binary model snapshot.
//
//   rpe_cli evaluate --train a.csv --test b.csv [--pool ...] [--dynamic]
//       Train on one record set, evaluate on another, print the metrics.
//
//   rpe_cli inspect  --records records.{csv|rpsn}
//       Summarize a record set (per-estimator error stats and win rates).
//
//   rpe_cli snapshot-save --records records.csv --out records.rpsn
//       Convert a CSV record set into a binary record snapshot.
//
//   rpe_cli snapshot-load --in x.rpsn [--out records.csv]
//       Verify + describe a snapshot (either kind); optionally convert a
//       record snapshot back to CSV.
//
//   rpe_cli serve-replay --kind tpch --queries 60 [--sessions 64]
//                        [--shards 4] [--model stack.rpsn] [--mmap]
//                        [--trees 50] [--verify]
//       Run a workload, then replay every query concurrently through the
//       (optionally sharded) monitor tier and print the serving stats
//       (p50/p95 replay latency, decisions/sec). --mmap loads --model
//       zero-copy through the snapshot arena.
//
//   rpe_cli serve-tcp --kind tpch --queries 40 [--port 0] [--shards 4]
//                     [--io-threads 0] [--model stack.rpsn] [--mmap]
//                     [--trees 50] [--metrics-port 0] [--trace-out t.json]
//                     [--slow-ms 50]
//       Run a workload, then serve it over TCP (loopback) with the epoll
//       front-end: Open/Advance/Progress/Close/Stats over the
//       length-prefixed wire protocol (docs/NETWORK.md). Prints
//       "listening on 127.0.0.1:<port>" once ready (--port 0 picks an
//       ephemeral port), serves until SIGTERM/SIGINT, then drains, prints
//       the serving stats, and exits 0. Drive it with rpe_loadgen.
//       --metrics-port opens a loopback HTTP /metrics listener
//       (Prometheus text, "metrics on 127.0.0.1:<port>" printed at
//       startup); --trace-out writes a Chrome trace-event JSON dump at
//       exit; --slow-ms logs any request slower than the threshold with a
//       per-span breakdown (see docs/OBSERVABILITY.md). The whole
//       online-learning loop runs behind the wire: ingest frames feed a
//       background TrainerLoop that retrains and hot-swaps the stack
//       into every shard ([--retrain-every 48] [--queue-cap 1024]
//       [--snapshot-out stack.rpsn]); drive it with
//       `rpe_loadgen --ingest-rate`.
//
// See docs/CLI.md for the full flag reference. All commands accept
// --threads N to size the worker pool of index builds, training and
// selection (default: RPE_NUM_THREADS env var, else hardware
// concurrency). Built workloads and trained models are identical at any
// thread count.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/simd.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "harness/experiment.h"
#include "harness/runner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/metrics_export.h"
#include "serving/mmap_arena.h"
#include "serving/monitor_service.h"
#include "serving/server.h"
#include "serving/shard_router.h"
#include "serving/snapshot.h"
#include "serving/trainer_loop.h"

namespace rpe {
namespace {

std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[arg] = argv[++i];
    } else {
      flags[arg] = "true";
    }
  }
  return flags;
}

std::string FlagOr(const std::map<std::string, std::string>& flags,
                   const std::string& key, const std::string& fallback) {
  auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

Result<WorkloadKind> ParseKind(const std::string& s) {
  if (s == "tpch") return WorkloadKind::kTpch;
  if (s == "tpcds") return WorkloadKind::kTpcds;
  if (s == "real1") return WorkloadKind::kReal1;
  if (s == "real2") return WorkloadKind::kReal2;
  return Status::InvalidArgument("unknown workload kind: " + s);
}

Result<TuningLevel> ParseTuning(const std::string& s) {
  if (s == "untuned") return TuningLevel::kUntuned;
  if (s == "partial") return TuningLevel::kPartiallyTuned;
  if (s == "full") return TuningLevel::kFullyTuned;
  return Status::InvalidArgument("unknown tuning level: " + s);
}

std::vector<size_t> ParsePool(const std::string& s) {
  if (s == "three") return PoolOriginalThree();
  if (s == "all") return PoolAll();
  return PoolSix();
}

/// Shared workload flags (kind/name/scale/zipf/tuning/queries/seed);
/// per-command defaults differ only in scale and query count.
Result<WorkloadConfig> ParseWorkloadFlags(
    const std::map<std::string, std::string>& flags,
    const std::string& default_scale, const std::string& default_queries) {
  WorkloadConfig config;
  RPE_ASSIGN_OR_RETURN(config.kind, ParseKind(FlagOr(flags, "kind", "tpch")));
  config.name = FlagOr(flags, "name", FlagOr(flags, "kind", "tpch"));
  config.scale = std::stod(FlagOr(flags, "scale", default_scale));
  config.zipf = std::stod(FlagOr(flags, "zipf", "1.0"));
  RPE_ASSIGN_OR_RETURN(config.tuning,
                       ParseTuning(FlagOr(flags, "tuning", "partial")));
  config.num_queries = static_cast<size_t>(
      std::stoul(FlagOr(flags, "queries", default_queries)));
  config.seed = std::stoull(FlagOr(flags, "seed", "1"));
  return config;
}

/// Strictly-parsed integer flag in [min, max]: a typo'd or out-of-range
/// value must fail loudly with a hint, not std::stoul its way into a
/// nonsense server configuration.
Result<size_t> ParseSizeFlag(const std::map<std::string, std::string>& flags,
                             const std::string& key,
                             const std::string& fallback, size_t min,
                             size_t max) {
  const std::string raw = FlagOr(flags, key, fallback);
  size_t value = 0;
  size_t consumed = 0;
  try {
    value = std::stoul(raw, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed != raw.size() || raw.empty() || value < min || value > max) {
    return Status::InvalidArgument(
        "invalid --" + key + " value '" + raw + "' (expected an integer in [" +
        std::to_string(min) + ", " + std::to_string(max) +
        "]); see docs/CLI.md or rpe_cli --help");
  }
  return value;
}

bool IsSnapshotPath(const std::string& path) {
  return path.size() >= 5 &&
         path.compare(path.size() - 5, 5, ".rpsn") == 0;
}

/// Records load from either persistence format, keyed by extension:
/// `.rpsn` is the binary snapshot, anything else the CSV path.
Result<std::vector<PipelineRecord>> LoadRecordsAuto(const std::string& path) {
  if (IsSnapshotPath(path)) return LoadRecordBatch(path);
  return LoadRecords(path);
}

int CmdRun(const std::map<std::string, std::string>& flags) {
  auto config = ParseWorkloadFlags(flags, /*default_scale=*/"10",
                                   /*default_queries=*/"200");
  if (!config.ok()) {
    std::cerr << config.status().ToString() << "\n";
    return 1;
  }

  RunOptions options;
  options.progress_every = 100;
  std::cerr << "building + running workload " << config->name << " ...\n";
  auto records = BuildAndRun(*config, options, FlagOr(flags, "tag", ""));
  if (!records.ok()) {
    std::cerr << records.status().ToString() << "\n";
    return 1;
  }
  const bool binary = flags.count("binary") > 0;
  const std::string out =
      FlagOr(flags, "out", binary ? "records.rpsn" : "records.csv");
  const Status save = binary || IsSnapshotPath(out)
                          ? SaveRecordBatch(*records, out)
                          : SaveRecords(*records, out);
  if (!save.ok()) {
    std::cerr << save.ToString() << "\n";
    return 1;
  }
  std::cout << records->size() << " pipeline records -> " << out << "\n";
  return 0;
}

int CmdTrain(const std::map<std::string, std::string>& flags) {
  auto records = LoadRecordsAuto(FlagOr(flags, "records", "records.csv"));
  if (!records.ok()) {
    std::cerr << records.status().ToString() << "\n";
    return 1;
  }
  MartParams params = EstimatorSelector::DefaultParams();
  params.num_trees = std::stoi(FlagOr(flags, "trees", "200"));
  const SelectorStack stack = SelectorStack::Train(
      *records, ParsePool(FlagOr(flags, "pool", "six")), params);

  const std::string out = FlagOr(flags, "out", "stack.rpsn");
  const Status save = SaveSelectorStack(stack, out);
  if (!save.ok()) {
    std::cerr << save.ToString() << "\n";
    return 1;
  }
  std::cout << "trained static+dynamic selectors ("
            << stack.static_selector.models().size()
            << " candidate models each) on " << records->size()
            << " records -> " << out << "\n";
  return 0;
}

int CmdEvaluate(const std::map<std::string, std::string>& flags) {
  auto train = LoadRecordsAuto(FlagOr(flags, "train", "train.csv"));
  auto test = LoadRecordsAuto(FlagOr(flags, "test", "test.csv"));
  if (!train.ok() || !test.ok()) {
    std::cerr << "failed to load records\n";
    return 1;
  }
  const auto pool = ParsePool(FlagOr(flags, "pool", "six"));
  const bool dynamic = flags.count("dynamic") > 0;
  MartParams params = EstimatorSelector::DefaultParams();
  params.num_trees = std::stoi(FlagOr(flags, "trees", "100"));
  const auto eval = TrainAndEvaluate(*train, *test, pool, dynamic, params);

  TablePrinter table({"Policy", "avg L1", "avg L2", "% optimal", ">5x"});
  for (size_t est : pool) {
    const auto m = EvaluateChoices(*test, FixedChoice(*test, est), pool);
    table.AddRow({EstimatorName(static_cast<EstimatorKind>(est)),
                  TablePrinter::Fmt(m.avg_l1, 4),
                  TablePrinter::Fmt(m.avg_l2, 4),
                  TablePrinter::Pct(m.pct_optimal),
                  TablePrinter::Pct(m.frac_ratio_gt5)});
  }
  table.AddRow({"EST. SELECTION", TablePrinter::Fmt(eval.metrics.avg_l1, 4),
                TablePrinter::Fmt(eval.metrics.avg_l2, 4),
                TablePrinter::Pct(eval.metrics.pct_optimal),
                TablePrinter::Pct(eval.metrics.frac_ratio_gt5)});
  table.Print();
  return 0;
}

int CmdInspect(const std::map<std::string, std::string>& flags) {
  auto records = LoadRecordsAuto(FlagOr(flags, "records", "records.csv"));
  if (!records.ok()) {
    std::cerr << records.status().ToString() << "\n";
    return 1;
  }
  std::cout << records->size() << " pipeline records\n";
  std::map<std::string, size_t> per_workload;
  for (const auto& r : *records) per_workload[r.workload]++;
  for (const auto& [w, n] : per_workload) {
    std::cout << "  " << w << ": " << n << "\n";
  }
  TablePrinter table({"Estimator", "avg L1", "win rate"});
  for (int e = 0; e < kNumSelectableEstimators; ++e) {
    const auto m =
        EvaluateChoices(*records, FixedChoice(*records, static_cast<size_t>(e)));
    table.AddRow({EstimatorName(static_cast<EstimatorKind>(e)),
                  TablePrinter::Fmt(m.avg_l1, 4),
                  TablePrinter::Pct(
                      FractionOptimal(*records, static_cast<size_t>(e)))});
  }
  table.Print();
  return 0;
}

int CmdSnapshotSave(const std::map<std::string, std::string>& flags) {
  auto records = LoadRecordsAuto(FlagOr(flags, "records", "records.csv"));
  if (!records.ok()) {
    std::cerr << records.status().ToString() << "\n";
    return 1;
  }
  const std::string out = FlagOr(flags, "out", "records.rpsn");
  auto save = SaveRecordBatch(*records, out);
  if (!save.ok()) {
    std::cerr << save.ToString() << "\n";
    return 1;
  }
  std::cout << records->size() << " records -> binary snapshot " << out
            << "\n";
  return 0;
}

int CmdSnapshotLoad(const std::map<std::string, std::string>& flags) {
  const std::string in = FlagOr(flags, "in", "records.rpsn");
  auto bytes = ReadSnapshotFile(in);
  if (!bytes.ok()) {
    std::cerr << bytes.status().ToString() << "\n";
    return 1;
  }
  auto kind = PeekSnapshotKind(*bytes);
  if (!kind.ok()) {
    std::cerr << kind.status().ToString() << "\n";
    return 1;
  }
  if (*kind == SnapshotKind::kRecordBatch) {
    auto records = DecodeRecordBatch(*bytes);
    if (!records.ok()) {
      std::cerr << records.status().ToString() << "\n";
      return 1;
    }
    std::cout << in << ": record batch, " << records->size()
              << " records (CRC ok)\n";
    if (flags.count("out") > 0) {
      auto save = SaveRecords(*records, flags.at("out"));
      if (!save.ok()) {
        std::cerr << save.ToString() << "\n";
        return 1;
      }
      std::cout << "  -> CSV " << flags.at("out") << "\n";
    }
    return 0;
  }
  auto stack = DecodeSelectorStack(*bytes);
  if (!stack.ok()) {
    std::cerr << stack.status().ToString() << "\n";
    return 1;
  }
  std::cout << in << ": selector stack (CRC ok)\n";
  for (const auto* sel : {&stack->static_selector, &stack->dynamic_selector}) {
    size_t trees = 0;
    for (const auto& m : sel->models()) trees += m.num_trees();
    std::cout << "  " << (sel->uses_dynamic_features() ? "dynamic" : "static")
              << ": " << sel->models().size() << " candidate models, "
              << trees << " trees total, pool {";
    for (size_t i = 0; i < sel->pool().size(); ++i) {
      std::cout << (i > 0 ? " " : "")
                << EstimatorName(static_cast<EstimatorKind>(sel->pool()[i]));
    }
    std::cout << "}\n";
  }
  return 0;
}

/// Build + execute a serving workload, keeping every successful run alive
/// (sessions replay against them) and its featurized records. Shared by
/// serve-replay and serve-tcp.
Status ExecuteServingWorkload(const WorkloadConfig& config,
                              std::vector<OwnedRun>* runs,
                              std::vector<PipelineRecord>* records) {
  std::cerr << "building + running workload " << config.name << " ...\n";
  RPE_ASSIGN_OR_RETURN(Workload workload, BuildWorkload(config));
  RunOptions options;
  for (const QuerySpec& spec : workload.queries) {
    auto run = RunQuery(workload, spec, options);
    if (!run.ok()) continue;
    for (const Pipeline& pipeline : run->result.pipelines) {
      PipelineView view{&run->result, &pipeline};
      PipelineRecord record;
      if (MakeRecord(view, config.name, spec.name, "", &record,
                     options.min_observations)) {
        records->push_back(std::move(record));
      }
    }
    runs->push_back(std::move(run).ValueOrDie());
  }
  if (runs->empty()) {
    return Status::Internal("no query of the workload executed successfully");
  }
  if (records->empty()) {
    return Status::Internal(
        "workload produced no trainable pipeline records (every pipeline "
        "below min_observations); increase --queries or --scale");
  }
  return Status::OK();
}

/// Load the --model snapshot up front — before the (expensive) workload
/// run — so a corrupt, truncated, or missing file fails in milliseconds
/// with its Status on stderr and a nonzero exit. Returns nullptr when no
/// --model flag was given (the stack is trained post-workload instead).
Result<std::shared_ptr<const SelectorStack>> PreloadModel(
    const std::map<std::string, std::string>& flags) {
  if (flags.count("model") == 0) {
    return std::shared_ptr<const SelectorStack>(nullptr);
  }
  const std::string& path = flags.at("model");
  if (flags.count("mmap") > 0) {
    RPE_ASSIGN_OR_RETURN(ArenaStackLoad loaded, LoadSelectorStackMmap(path));
    std::cerr << "mmap-loaded selector stack from " << path << " ("
              << (loaded.zero_copy ? "zero-copy" : "copy fallback") << ", "
              << loaded.mapped_bytes << " bytes mapped)\n";
    return loaded.stack;
  }
  RPE_ASSIGN_OR_RETURN(SelectorStack loaded, LoadSelectorStack(path));
  std::cerr << "loaded selector stack from " << path << "\n";
  return std::make_shared<const SelectorStack>(std::move(loaded));
}

/// Initial serving stack: the preloaded --model when given, else trained
/// on `records` with --trees trees (default 50).
std::shared_ptr<const SelectorStack> InitialStack(
    const std::map<std::string, std::string>& flags,
    std::shared_ptr<const SelectorStack> preloaded,
    const std::vector<PipelineRecord>& records) {
  if (preloaded != nullptr) return preloaded;
  MartParams params = EstimatorSelector::DefaultParams();
  params.num_trees = std::stoi(FlagOr(flags, "trees", "50"));
  std::cerr << "training selector stack on " << records.size()
            << " records ...\n";
  return std::make_shared<const SelectorStack>(SelectorStack::Train(
      records, ParsePool(FlagOr(flags, "pool", "six")), params));
}

/// Shared --shards parsing for the serve commands (1..1024; powers of two
/// route cheapest but are not required).
Result<size_t> ParseShards(const std::map<std::string, std::string>& flags) {
  return ParseSizeFlag(flags, "shards", "1", 1, 1024);
}

/// The single definition of the --mmap flag contract, shared by both
/// serve commands.
Status CheckMmapFlags(const std::map<std::string, std::string>& flags) {
  if (flags.count("mmap") > 0 && flags.count("model") == 0) {
    return Status::InvalidArgument(
        "--mmap requires --model <stack.rpsn> (there is nothing to map when "
        "the stack is trained in-process); see docs/CLI.md");
  }
  return Status::OK();
}

int CmdServeReplay(const std::map<std::string, std::string>& flags) {
  auto parsed = ParseWorkloadFlags(flags, /*default_scale=*/"5",
                                   /*default_queries=*/"60");
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    return 1;
  }
  const WorkloadConfig& config = *parsed;

  // Flag validation happens before the (expensive) workload run: a typo'd
  // serve configuration must fail in milliseconds.
  auto shards = ParseShards(flags);
  auto sessions_flag = ParseSizeFlag(flags, "sessions", "64", 1, 1 << 20);
  const Status mmap_ok = CheckMmapFlags(flags);
  for (const Status& st :
       {shards.status(), sessions_flag.status(), mmap_ok}) {
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 2;
    }
  }
  auto preloaded = PreloadModel(flags);
  if (!preloaded.ok()) {
    std::cerr << preloaded.status().ToString() << "\n";
    return 1;
  }

  std::vector<OwnedRun> runs;
  std::vector<PipelineRecord> records;
  const Status executed = ExecuteServingWorkload(config, &runs, &records);
  if (!executed.ok()) {
    std::cerr << executed.ToString() << "\n";
    return 1;
  }

  std::shared_ptr<const SelectorStack> stack =
      InitialStack(flags, *preloaded, records);

  // One session per requested slot, cycling the executed runs.
  const size_t num_sessions = *sessions_flag;
  std::vector<const QueryRunResult*> session_runs;
  session_runs.reserve(num_sessions);
  for (size_t s = 0; s < num_sessions; ++s) {
    session_runs.push_back(&runs[s % runs.size()].result);
  }

  ShardedMonitorService::Options service_options;
  service_options.num_shards = *shards;
  ShardedMonitorService service(stack, service_options);
  const auto series = service.ReplayAll(session_runs);

  if (flags.count("verify") > 0) {
    // Every replica of a run must match the sequential monitor bit for bit.
    ProgressMonitor sequential(&stack->static_selector,
                               &stack->dynamic_selector);
    for (size_t s = 0; s < session_runs.size(); ++s) {
      const auto expected = sequential.ReplayQueryProgress(*session_runs[s]);
      if (series[s] != expected) {
        std::cerr << "VERIFY FAILED: session " << s
                  << " diverges from the sequential replay\n";
        return 1;
      }
    }
    std::cout << "verify: " << session_runs.size()
              << " concurrent sessions bit-identical to sequential replay\n";
  }

  // The exit table is registry-driven (one formatter for every serve-*
  // command): the rows ARE the samples a /metrics scrape would export.
  obs::MetricsRegistry registry;
  RegisterServiceCollector(&registry, &service);
  RegisterSimdCollector(&registry);
  TablePrinter table = MetricsTable(registry.Collect());
  table.AddRow({"simd", simd::KernelReport()});
  table.Print();
  return 0;
}

/// SIGTERM/SIGINT land here; the serve-tcp main loop polls the flag and
/// runs the (non-async-signal-safe) drain outside the handler.
volatile std::sig_atomic_t g_serve_tcp_stop = 0;

void ServeTcpSignalHandler(int) { g_serve_tcp_stop = 1; }

int CmdServeTcp(const std::map<std::string, std::string>& flags) {
  auto parsed = ParseWorkloadFlags(flags, /*default_scale=*/"5",
                                   /*default_queries=*/"40");
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    return 1;
  }
  const WorkloadConfig& config = *parsed;

  // Flag validation happens before the (expensive) workload run: a typo'd
  // serve configuration must fail in milliseconds.
  auto shards = ParseShards(flags);
  auto port = ParseSizeFlag(flags, "port", "0", 0, 65535);
  auto io_threads = ParseSizeFlag(flags, "io-threads", "0", 0, 256);
  auto queue_cap = ParseSizeFlag(flags, "queue-cap", "1024", 1, 1 << 24);
  auto retrain_every =
      ParseSizeFlag(flags, "retrain-every", "48", 0, 1 << 24);
  // TrainerLoop requires max_corpus >= min_corpus (at most 16 here).
  auto corpus_cap = ParseSizeFlag(flags, "corpus-cap", "4096", 16, 1 << 24);
  auto max_inflight =
      ParseSizeFlag(flags, "max-inflight", "4096", 1, 1 << 24);
  auto conn_inflight =
      ParseSizeFlag(flags, "conn-inflight", "128", 1, 1 << 24);
  auto ingest_watermark =
      ParseSizeFlag(flags, "ingest-watermark", "0", 0, 1 << 24);
  // Observability: --metrics-port (0 = ephemeral) opens the HTTP
  // /metrics listener; --trace-out dumps a Chrome trace at exit;
  // --slow-ms turns on the slow-request log. Either of the latter two
  // enables the tracer.
  const bool metrics_enabled = flags.count("metrics-port") != 0;
  auto metrics_port = ParseSizeFlag(flags, "metrics-port", "0", 0, 65535);
  const std::string trace_out = FlagOr(flags, "trace-out", "");
  auto slow_ms = ParseSizeFlag(flags, "slow-ms", "0", 0, 1 << 24);
  const Status mmap_ok = CheckMmapFlags(flags);
  for (const Status& st :
       {shards.status(), port.status(), io_threads.status(),
        queue_cap.status(), retrain_every.status(), corpus_cap.status(),
        max_inflight.status(), conn_inflight.status(),
        ingest_watermark.status(), metrics_port.status(),
        slow_ms.status(), mmap_ok}) {
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 2;
    }
  }
  auto preloaded = PreloadModel(flags);
  if (!preloaded.ok()) {
    std::cerr << preloaded.status().ToString() << "\n";
    return 1;
  }

  std::vector<OwnedRun> runs;
  std::vector<PipelineRecord> records;
  const Status executed = ExecuteServingWorkload(config, &runs, &records);
  if (!executed.ok()) {
    std::cerr << executed.ToString() << "\n";
    return 1;
  }

  std::shared_ptr<const SelectorStack> stack =
      InitialStack(flags, *preloaded, records);

  ShardedMonitorService::Options service_options;
  service_options.num_shards = *shards;
  ShardedMonitorService service(stack, service_options);

  // The full online loop rides behind the wire: ingest frames land in
  // this queue, the TrainerLoop drains/retrains/hot-swaps, and kStats
  // responses expose the generation bumps mid-connection.
  RecordIngestQueue queue(*queue_cap);
  TrainerLoop::Options trainer_options;
  trainer_options.retrain_min_records = *retrain_every;
  trainer_options.max_corpus = *corpus_cap;
  trainer_options.min_corpus = std::min<size_t>(
      trainer_options.min_corpus, std::max<size_t>(records.size(), 1));
  trainer_options.pool = ParsePool(FlagOr(flags, "pool", "six"));
  trainer_options.params = EstimatorSelector::DefaultParams();
  trainer_options.params.num_trees =
      std::stoi(FlagOr(flags, "trees", "50"));
  trainer_options.snapshot_path = FlagOr(flags, "snapshot-out", "");
  TrainerLoop trainer(&queue, &service, trainer_options);
  trainer.SeedCorpus(records);
  service.SetIngestStatsProvider([&trainer] { return trainer.GetStats(); });
  trainer.Start();

  // The replay corpus OpenRequest.run_index indexes into (modulo).
  std::vector<const QueryRunResult*> run_ptrs;
  run_ptrs.reserve(runs.size());
  for (const OwnedRun& run : runs) run_ptrs.push_back(&run.result);

  // One registry backs every operator surface — the /metrics endpoint,
  // kMetricsDump frames, and the exit table below. The server registers
  // its own counters into it; everything else exports via collectors.
  obs::MetricsRegistry registry;
  RegisterServiceCollector(&registry, &service);
  RegisterFailPointCollector(&registry);
  RegisterSimdCollector(&registry);
  RegisterTracerCollector(&registry);
  if (!trace_out.empty() || *slow_ms > 0) {
    obs::Tracer::Global().Enable();
    obs::Tracer::Global().SetSlowThresholdNs(
        static_cast<uint64_t>(*slow_ms) * 1000000u);
  }

  TcpServer::Options server_options;
  server_options.port = static_cast<uint16_t>(*port);
  server_options.io_threads = *io_threads;
  server_options.max_inflight_total = *max_inflight;
  server_options.max_inflight_per_conn = *conn_inflight;
  server_options.ingest_shed_watermark = *ingest_watermark;
  server_options.metrics = &registry;
  server_options.metrics_port =
      metrics_enabled ? static_cast<int>(*metrics_port) : -1;
  TcpServer server(&service, run_ptrs, &queue, server_options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    return 1;
  }

  g_serve_tcp_stop = 0;
  std::signal(SIGTERM, ServeTcpSignalHandler);
  std::signal(SIGINT, ServeTcpSignalHandler);
  // The smoke test (scripts/server_smoke_test.sh) parses this line for
  // the ephemeral port; keep the format stable.
  std::cout << "listening on 127.0.0.1:" << server.port() << " ("
            << service.num_shards() << " shards, " << run_ptrs.size()
            << " runs)" << std::endl;
  if (metrics_enabled) {
    // The smoke test parses this line for the scrape port; keep the
    // format stable.
    std::cout << "metrics on 127.0.0.1:" << server.metrics_port()
              << std::endl;
  }
  while (g_serve_tcp_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  RPE_LOG_INFO << "draining ...";
  // Order matters: the server stops accepting records first, the queue
  // closes so the trainer's final drain sees the tail, then the trainer
  // stops (possibly publishing once more) before stats are read.
  server.Stop();
  queue.Close();
  trainer.Stop();

  if (!trace_out.empty()) {
    const Status wrote = obs::Tracer::Global().WriteChromeTrace(trace_out);
    if (!wrote.ok()) {
      RPE_LOG_WARN << "trace dump failed: " << wrote.ToString();
    }
  }

  // The exit table is the scrape, rendered: server-owned counters first
  // (registration order), then the service/failpoint/simd/tracer
  // collector samples. Scripts regex-match row labels first-hit-wins,
  // which is why the wire-session counters carry no table label (the
  // "sessions opened" row must be the service's).
  TablePrinter table = MetricsTable(registry.Collect());
  table.AddRow({"simd", simd::KernelReport()});
  table.Print();
  return 0;
}

void PrintUsage(std::ostream& out) {
  out << "usage: rpe_cli <command> [--flags]   (see docs/CLI.md)\n"
         "commands:\n"
         "  run            execute a workload and write pipeline records\n"
         "  train          train the selector stack, write a .rpsn model\n"
         "  evaluate       train on one record set, score another\n"
         "  inspect        summarize a record set\n"
         "  snapshot-save  convert CSV records to a binary snapshot\n"
         "  snapshot-load  verify + describe a snapshot\n"
         "  serve-replay   concurrent MonitorService replay of a workload\n"
         "  serve-tcp      epoll TCP front-end over the monitor tier\n"
         "  version        build + SIMD dispatch report (also --version)\n"
         "common flags: --threads N; serve commands also take --shards N\n"
         "(sharded session routing) and --model x.rpsn --mmap (zero-copy\n"
         "snapshot load)\n";
}

/// `version` / `--version`: which SIMD tier was detected, what RPE_SIMD
/// resolved to, and which implementation each dispatched kernel bound —
/// the observable surface of common/simd.h (tests/simd_test.cpp asserts
/// on the same KernelReport string).
int CmdVersion() {
  std::cout << "rpe_cli (journals_pvldb_KonigDCN11 reproduction)\n"
            << "simd: detected=" << simd::TierName(simd::DetectedTier())
            << " " << simd::KernelReport() << "\n";
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage(std::cerr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    PrintUsage(std::cout);
    return 0;
  }
  if (cmd == "version" || cmd == "--version") return CmdVersion();
  const auto flags = ParseFlags(argc, argv, 2);
  if (flags.count("threads") > 0) {
    ThreadPool::SetGlobalThreads(std::stoi(flags.at("threads")));
  }
  // Make fault-injection runs self-announcing: RPE_FAILPOINTS armed sites
  // are listed up front so a chaos run is never mistaken for a clean one.
  if (const auto armed = FailPoints::Armed(); !armed.empty()) {
    std::string names;
    for (const auto& name : armed) names += " " + name;
    // Scripts grep the "failpoints armed: <name>" substring; the logger
    // prefix (timestamp/level/tid) is additive, never a replacement.
    RPE_LOG_INFO << "failpoints armed:" << names;
  }
  if (cmd == "run") return CmdRun(flags);
  if (cmd == "train") return CmdTrain(flags);
  if (cmd == "evaluate") return CmdEvaluate(flags);
  if (cmd == "inspect") return CmdInspect(flags);
  if (cmd == "snapshot-save") return CmdSnapshotSave(flags);
  if (cmd == "snapshot-load") return CmdSnapshotLoad(flags);
  if (cmd == "serve-replay") return CmdServeReplay(flags);
  if (cmd == "serve-tcp") return CmdServeTcp(flags);
  std::cerr << "unknown command: " << cmd << "\n";
  return 2;
}

}  // namespace
}  // namespace rpe

int main(int argc, char** argv) { return rpe::Main(argc, argv); }
