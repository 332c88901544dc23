#include "serving/monitor_service.h"

#include <chrono>

#include "common/logging.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace rpe {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t CountDecisions(
    const std::vector<ProgressMonitor::PipelineDecision>& decisions) {
  uint64_t n = 0;
  for (const auto& d : decisions) {
    n += 1 + (d.revised_choice.has_value() ? 1 : 0);
  }
  return n;
}

}  // namespace

MonitorService::Session::Session(std::shared_ptr<const SelectorStack> stack,
                                 const QueryRunResult* r, double marker_pct)
    : pinned(std::move(stack)),
      monitor(&pinned->static_selector, &pinned->dynamic_selector, marker_pct),
      run(r) {}

MonitorService::MonitorService(std::shared_ptr<const SelectorStack> models)
    : MonitorService(std::move(models), Options()) {}

MonitorService::MonitorService(std::shared_ptr<const SelectorStack> models,
                               Options options)
    : options_(options), models_(std::move(models)) {
  RPE_CHECK(models_ != nullptr);
}

uint64_t MonitorService::SwapModels(
    std::shared_ptr<const SelectorStack> models) {
  RPE_CHECK(models != nullptr);
  std::lock_guard<std::mutex> lock(models_mu_);
  models_ = std::move(models);
  return ++model_generation_;
}

std::shared_ptr<const SelectorStack> MonitorService::models() const {
  std::lock_guard<std::mutex> lock(models_mu_);
  return models_;
}

uint64_t MonitorService::model_generation() const {
  std::lock_guard<std::mutex> lock(models_mu_);
  return model_generation_;
}

Result<MonitorService::SessionId> MonitorService::OpenSession(
    const QueryRunResult* run) {
  if (run == nullptr) {
    return Status::InvalidArgument("OpenSession: null run");
  }
  const auto start = Clock::now();
  auto session = std::make_shared<Session>(models(), run,
                                           options_.revision_marker_pct);
  // The estimator decisions — the selector scoring — happen at open, once,
  // exactly as a live monitor decides when the query is admitted.
  session->decisions = session->monitor.DecideForRun(*run);
  session->elapsed_sec = SecondsSince(start);
  const double session_elapsed = session->elapsed_sec;
  const uint64_t decisions = CountDecisions(session->decisions);
  SessionId id = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    id = next_id_++;
    sessions_.emplace(id, std::move(session));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++sessions_opened_;
    decisions_ += decisions;
    scoring_time_sec_ += session_elapsed;
  }
  return id;
}

Result<std::vector<MonitorService::SessionId>> MonitorService::OpenSessions(
    std::span<const QueryRunResult* const> runs) {
  for (const QueryRunResult* run : runs) {
    if (run == nullptr) {
      return Status::InvalidArgument("OpenSessions: null run");
    }
  }
  std::vector<SessionId> ids(runs.size());
  if (runs.empty()) return ids;
  const auto start = Clock::now();
  const std::shared_ptr<const SelectorStack> stack = models();
  std::vector<std::shared_ptr<Session>> opened;
  opened.reserve(runs.size());
  for (const QueryRunResult* run : runs) {
    opened.push_back(
        std::make_shared<Session>(stack, run, options_.revision_marker_pct));
  }
  // One batched decision pass across every pipeline of every run — the
  // same choices OpenSession makes per run, scored in full SIMD tiles.
  auto decided = opened.front()->monitor.DecideForRuns(runs);
  const double elapsed = SecondsSince(start);
  const double per_session = elapsed / static_cast<double>(runs.size());
  uint64_t total_decisions = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    total_decisions += CountDecisions(decided[i]);
    opened[i]->decisions = std::move(decided[i]);
    opened[i]->elapsed_sec = per_session;
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (size_t i = 0; i < runs.size(); ++i) {
      ids[i] = next_id_++;
      sessions_.emplace(ids[i], std::move(opened[i]));
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    sessions_opened_ += runs.size();
    decisions_ += total_decisions;
    scoring_time_sec_ += elapsed;
  }
  return ids;
}

Result<std::shared_ptr<MonitorService::Session>> MonitorService::Find(
    SessionId id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("no open session " + std::to_string(id));
  }
  return it->second;
}

double MonitorService::StepLocked(Session* s) {
  const auto start = Clock::now();
  s->last_progress =
      s->monitor.QueryProgressAt(*s->run, s->decisions, s->next_obs);
  ++s->next_obs;
  const double dt = SecondsSince(start);
  s->elapsed_sec += dt;
  return dt;
}

Result<double> MonitorService::Advance(SessionId id) {
  // Parents to the wire request being advanced when the TCP front-end
  // set a TraceContext; one relaxed load when tracing is off.
  obs::TraceSpan span("advance.step", /*arg=*/id);
  RPE_ASSIGN_OR_RETURN(std::shared_ptr<Session> s, Find(id));
  double progress = 0.0;
  double dt = 0.0;
  {
    std::lock_guard<std::mutex> lock(s->mu);
    if (s->next_obs >= s->run->observations.size()) {
      return Status::OutOfRange("session " + std::to_string(id) +
                                " replay complete");
    }
    dt = StepLocked(s.get());
    progress = s->last_progress;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++observations_scored_;
  scoring_time_sec_ += dt;
  return progress;
}

Result<double> MonitorService::Progress(SessionId id) const {
  RPE_ASSIGN_OR_RETURN(std::shared_ptr<Session> s, Find(id));
  std::lock_guard<std::mutex> lock(s->mu);
  return s->last_progress;
}

Result<bool> MonitorService::Done(SessionId id) const {
  RPE_ASSIGN_OR_RETURN(std::shared_ptr<Session> s, Find(id));
  std::lock_guard<std::mutex> lock(s->mu);
  return s->next_obs >= s->run->observations.size();
}

void MonitorService::PushLatencyLocked(double latency_ms) {
  if (replay_latency_ms_.size() < kLatencyWindow) {
    replay_latency_ms_.push_back(latency_ms);
  } else {
    replay_latency_ms_[latency_next_] = latency_ms;  // overwrite the oldest
    latency_next_ = (latency_next_ + 1) % kLatencyWindow;
  }
}

void MonitorService::RecordCompletion(const Session& s) {
  // Scoring time already accrued live (at open and per step); only the
  // completion latency sample and count are recorded here.
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++sessions_completed_;
  PushLatencyLocked(s.elapsed_sec * 1e3);
}

Status MonitorService::CloseSession(SessionId id) {
  std::shared_ptr<Session> s;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::NotFound("no open session " + std::to_string(id));
    }
    s = std::move(it->second);
    sessions_.erase(it);
  }
  std::lock_guard<std::mutex> lock(s->mu);
  if (s->next_obs >= s->run->observations.size()) RecordCompletion(*s);
  return Status::OK();
}

size_t MonitorService::num_open_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

std::vector<std::vector<double>> MonitorService::ReplayAll(
    std::span<const QueryRunResult* const> runs) {
  const std::shared_ptr<const SelectorStack> stack = models();
  ThreadPool* pool =
      options_.pool != nullptr ? options_.pool : &ThreadPool::Global();
  std::vector<std::vector<double>> out(runs.size());
  if (runs.empty()) return out;
  // Decisions for every run score in one batched pass (full SIMD tiles
  // across runs) before the per-observation replay shards across the
  // pool. DecideForRuns is bit-identical to per-run DecideForRun, so each
  // series stays bit-identical to the sequential
  // ProgressMonitor::ReplayQueryProgress regardless of sharding.
  const auto decide_start = Clock::now();
  ProgressMonitor monitor(&stack->static_selector, &stack->dynamic_selector,
                          options_.revision_marker_pct);
  const auto decided = monitor.DecideForRuns(runs);
  const double decide_ms_per_run =
      SecondsSince(decide_start) * 1e3 / static_cast<double>(runs.size());
  std::vector<double> latency_ms(runs.size(), 0.0);
  std::vector<uint64_t> decisions(runs.size(), 0);
  std::vector<uint64_t> scored(runs.size(), 0);
  pool->ParallelFor(runs.size(), [&](size_t i) {
    const QueryRunResult& run = *runs[i];
    const auto start = Clock::now();
    std::vector<double>& series = out[i];
    series.reserve(run.observations.size());
    for (size_t oi = 0; oi < run.observations.size(); ++oi) {
      series.push_back(monitor.QueryProgressAt(run, decided[i], oi));
    }
    latency_ms[i] = decide_ms_per_run + SecondsSince(start) * 1e3;
    decisions[i] = CountDecisions(decided[i]);
    scored[i] = run.observations.size();
  });
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (size_t i = 0; i < runs.size(); ++i) {
    ++sessions_opened_;
    ++sessions_completed_;
    decisions_ += decisions[i];
    observations_scored_ += scored[i];
    scoring_time_sec_ += latency_ms[i] / 1e3;
    PushLatencyLocked(latency_ms[i]);
  }
  return out;
}

MonitorService::Stats MonitorService::GetStats(
    std::vector<double>* latency_samples) const {
  Stats stats;
  stats.model_generation = model_generation();
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats.sessions_opened = sessions_opened_;
  stats.sessions_completed = sessions_completed_;
  stats.decisions = decisions_;
  stats.observations_scored = observations_scored_;
  stats.p50_replay_ms = Percentile(replay_latency_ms_, 50.0);
  stats.p95_replay_ms = Percentile(replay_latency_ms_, 95.0);
  stats.scoring_time_sec = scoring_time_sec_;
  if (latency_samples != nullptr) *latency_samples = replay_latency_ms_;
  if (scoring_time_sec_ > 0.0) {
    // Throughput over cumulative scoring time (accrued live at every
    // decision and observation step, so open or early-closed sessions
    // are counted): per-core rates comparable across thread counts.
    stats.decisions_per_sec =
        static_cast<double>(decisions_) / scoring_time_sec_;
    stats.observations_per_sec =
        static_cast<double>(observations_scored_) / scoring_time_sec_;
  }
  return stats;
}

}  // namespace rpe
