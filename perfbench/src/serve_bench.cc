// The serving workload: `rpe_cli serve-tcp` launched as a child process and
// driven over loopback by this file's own open-loop client, which speaks
// serving/wire.h directly so every request is timed from the moment it
// was due (not from when it was sent) and the client's own lateness is
// reported. Output checks replay sessions over the wire against an
// in-process replica of the server's replay corpus and reconcile the
// server's kStats counters with what the client sent.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.h"
#include "harness/runner.h"
#include "selection/monitor.h"
#include "serving/ingest.h"
#include "serving/shard_router.h"
#include "serving/snapshot.h"
#include "serving/trainer_loop.h"
#include "serving/wire.h"
#include "stats.h"

namespace perfbench {
namespace {

using rpe::MsgType;
using rpe::Result;
using rpe::Status;
using rpe::WireFrame;

// ---------------------------------------------------------------------------
// The workload, serve_step1: serve-tcp defaults (tpch, scale 5, 40 replay
// runs, 1 shard, 50 trees) loaded with 1-step Advance frames. Rates are
// frames per second summed over the load connections; the latency limit is
// frozen with the workload.

constexpr double kScale = 5.0;
constexpr size_t kQueries = 40;
constexpr size_t kTrees = 50;
/// Load connections, one client thread each. The threads busy-poll (one
/// CPU each) between due times, so their wake-up latency stays out of the
/// request latency; with serve-tcp's one IO thread, two of them leave a
/// CPU of the four free.
constexpr size_t kConns = 2;
constexpr uint32_t kStepsPerAdvance = 1;
/// Frames due in one send at most; frames due together (after a stall,
/// or at ladder rates above one per send) share one syscall.
constexpr size_t kMaxFramesPerSend = 64;
constexpr double kNominalRate = 20000.0;
/// Unrecorded lead-in at the nominal rate after each launch.
constexpr double kWarmupS = 0.3;
constexpr double kP90LimitMs = 1.0;
/// The ladder starts at the nominal rate, so that only a run whose nominal
/// latency already misses the limit finds no sustained rate.
const RateLadder kLadder{kNominalRate, 1.08, 80, 7};
/// Failed rungs per search that are run a second time (a stall on the
/// shared host can fail one run of a rung far below the sustained rate).
constexpr size_t kRungRetries = 2;
/// The traced run's ingest probe: kIngestBatch records every
/// kIngestPeriodS, one retrain per kRetrainEvery accepted records.
constexpr size_t kIngestBatch = 8;
constexpr double kIngestPeriodS = 0.05;
constexpr size_t kRetrainEvery = 48;
constexpr size_t kCorpusCap = 4096;
constexpr double kRetrainCycleS =
    static_cast<double>(kRetrainEvery) * kIngestPeriodS / kIngestBatch;
/// Server launches per run: setup_s is their median, and they share the
/// nominal phase, so that no single launch's placement on the (virtual)
/// CPUs sets the result.
constexpr size_t kLaunches = 7;
/// Windows (fractions of --seconds) whose p50/p90 medians are the reported
/// request latencies; a stall then moves one window, not the result.
constexpr double kWindowFrac = 0.025;
/// Run indices replayed step by step over the wire for the checks.
constexpr size_t kVerifyRuns = 40;

/// Lateness growth (last fifth vs first fifth of a phase) that marks the
/// generator as falling behind.
constexpr double kLateGrowthToleranceMs = 0.5;
/// Open sessions each load connection interleaves.
constexpr size_t kSlotsPerConn = 8;
/// The nominal phase takes --seconds, shared by the launches. The traced
/// run adds the ladder, of kLadderFrac of --seconds in rungs of kRungFrac.
constexpr double kLadderFrac = 0.55;
constexpr double kRungFrac = 0.04;
/// Windows per ladder rung; a rung passes when the median window p90 is
/// within the limit (so a lone stall does not fail it, a backlog does).
constexpr int kWindowsPerRung = 5;
/// Before each launch's nominal phase (after its lead-in) and before the
/// ladder, an unrecorded probe of kQuietProbeS at the nominal rate must
/// pass as a ladder rung would; while it does not, the load goes on
/// probing, for at most kQuietWaitS per run. On the shared host this was
/// built on,
/// periods of a minute or so come and go in which every request at the
/// nominal rate waits milliseconds (the nominal window p90 rose from
/// 0.024 ms to 1.2-1.5 ms in 4 of about 70 runs, and 2 of them found no
/// sustained rate at all). A program whose own latency misses the limit
/// is still measured, after the wait.
constexpr double kQuietProbeS = 0.5;
constexpr double kQuietWaitS = 60.0;

std::vector<std::string> ServerArgs() {
  return {
      "serve-tcp",       "--kind",         "tpch",
      "--scale",         std::to_string(static_cast<int>(kScale)),
      "--queries",       std::to_string(kQueries),
      "--trees",         std::to_string(kTrees),
      "--shards",        "1",
      "--port",          "0",
      "--retrain-every", std::to_string(kRetrainEvery),
      "--corpus-cap",    std::to_string(kCorpusCap),
      // Raised in-flight caps, so that the ladder finds where the server
      // stops keeping up rather than where admission control refuses a
      // burst.
      "--conn-inflight", "4096",
      "--max-inflight",  "16384"};
}

rpe::WorkloadConfig ReplicaConfig() {
  // serve-tcp's workload flags, as ParseWorkloadFlags reads them.
  rpe::WorkloadConfig config;
  config.kind = rpe::WorkloadKind::kTpch;
  config.name = "tpch";
  config.scale = kScale;
  config.zipf = 1.0;
  config.tuning = rpe::TuningLevel::kPartiallyTuned;
  config.num_queries = kQueries;
  config.seed = 1;
  return config;
}

// ---------------------------------------------------------------------------
// The server child process.

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Fork + exec `cli args`, stdout on a pipe, stderr to `log_path`, and
  /// wait for the "listening on" line. ready_s() is launch → that line.
  Status Launch(const std::string& cli, const std::vector<std::string>& args,
                const std::string& log_path, double timeout_s) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) return Status::Internal("pipe2 failed");
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
    if (log_fd < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return Status::Internal("cannot open server log " + log_path);
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(cli.c_str()));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    const double t0 = NowS();
    pid_ = ::fork();
    if (pid_ == 0) {
      // The server dies with the benchmark, whatever ends it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::execv(cli.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    ::close(log_fd);
    if (pid_ < 0) {
      ::close(fds[0]);
      return Status::Internal("fork failed");
    }
    out_fd_ = fds[0];
    std::string line;
    const double deadline = t0 + timeout_s;
    while (true) {
      const double left = deadline - NowS();
      if (left <= 0) return Status::Internal("server not ready in time");
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
      char c = 0;
      const ssize_t n = ::read(out_fd_, &c, 1);
      if (n <= 0) {
        return Status::Internal("server exited before listening (see " +
                                log_path + ")");
      }
      if (c != '\n') {
        line.push_back(c);
        continue;
      }
      const std::string prefix = "listening on 127.0.0.1:";
      if (line.rfind(prefix, 0) == 0) {
        ready_s_ = NowS() - t0;
        port_ = std::atoi(line.c_str() + prefix.size());
        return port_ > 0 ? Status::OK()
                         : Status::Internal("bad listening line: " + line);
      }
      line.clear();
    }
  }

  int port() const { return port_; }
  double ready_s() const { return ready_s_; }

  /// Peak resident set (VmHWM) of the server in MiB; 0 if unreadable.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string key;
    while (status >> key) {
      if (key == "VmHWM:") {
        double kb = 0;
        status >> kb;
        return kb / 1024.0;
      }
      status.ignore(1 << 20, '\n');
    }
    return 0.0;
  }

  /// SIGTERM (the server drains and exits 0), SIGKILL after 30 s; always
  /// reaps the child. Returns false unless it exited 0 on SIGTERM.
  bool Stop() {
    if (pid_ <= 0) return true;
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool clean = false;
    const double deadline = NowS() + 30.0;
    while (true) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        break;
      }
      if (r < 0) break;
      if (NowS() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
    return clean;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
  double ready_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// One client connection speaking the wire protocol.

class WireConn {
 public:
  WireConn() = default;
  ~WireConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  Status Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return Status::Internal("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      return Status::Internal("connect failed: " +
                              std::string(std::strerror(errno)));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    return Status::OK();
  }

  int fd() const { return fd_; }

  Status SendAll(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd p{fd_, POLLOUT, 0};
        ::poll(&p, 1, 100);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return Status::Internal("send failed");
    }
    return Status::OK();
  }

  /// Drain every byte the socket has into the frame decoder.
  Status ReadAvailable() {
    char buf[65536];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        decoder_.Feed(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) return Status::Internal("server closed the connection");
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      if (errno == EINTR) continue;
      return Status::Internal("recv failed");
    }
  }

  Result<bool> NextFrame(WireFrame* frame) { return decoder_.Next(frame); }

  /// Synchronous request → response (checks and stats polls).
  Result<WireFrame> Call(std::string_view request, double timeout_s = 30.0) {
    RPE_RETURN_NOT_OK(SendAll(request));
    const double deadline = NowS() + timeout_s;
    WireFrame frame;
    while (true) {
      RPE_ASSIGN_OR_RETURN(bool got, decoder_.Next(&frame));
      if (got) return frame;
      const double left = deadline - NowS();
      if (left <= 0) return Status::Internal("response timed out");
      pollfd p{fd_, POLLIN, 0};
      ::poll(&p, 1, static_cast<int>(left * 1000) + 1);
      RPE_RETURN_NOT_OK(ReadAvailable());
    }
  }

 private:
  int fd_ = -1;
  rpe::FrameDecoder decoder_;
};

Result<rpe::WireStats> FetchStats(WireConn* conn) {
  RPE_ASSIGN_OR_RETURN(WireFrame f, conn->Call(rpe::EncodeStatsRequest()));
  if (!f.ok() || f.type != MsgType::kStats) {
    return Status::Internal("stats request failed");
  }
  return rpe::DecodeStatsResponse(f.payload);
}

// ---------------------------------------------------------------------------
// Open-loop load.

struct LoadSlot {
  enum class State { kNeedOpen, kOpening, kReady };
  State state = State::kNeedOpen;
  uint64_t session = 0;
  uint32_t remaining = 0;
  /// Requests of this slot not yet answered. A session is closed only
  /// once every Advance of it is answered: a busy answer hands its steps
  /// back, and the session must still replay to its end.
  uint32_t inflight = 0;
};

/// A load connection and its interleaved sessions; persists across phases.
struct LoadConn {
  explicit LoadConn(uint64_t seed) : rng(seed), slots(kSlotsPerConn) {}
  WireConn wire;
  SeededRng rng;
  std::vector<LoadSlot> slots;
  size_t rr = 0;
  // Client-side totals for the kStats reconciliation.
  uint64_t opens = 0, closes = 0, steps = 0;
};

/// Samples and counts of one phase (merged over connections).
struct PhaseSamples {
  std::vector<double> lat_ms;   ///< due → response, response order
  std::vector<uint64_t> lat_due_ns;  ///< due time of each lat_ms sample
  std::vector<double> late_ms;  ///< due → send start, send order
  std::vector<double> send_us;  ///< send syscall (traced phases)
  std::vector<double> rtt_us;   ///< send start → response (traced phases)
  uint64_t sent = 0, errors = 0, busy = 0, unanswered = 0;
  std::string fatal;  ///< protocol break; the run cannot continue

  void Merge(PhaseSamples&& o) {
    auto cat = [](std::vector<double>* a, std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&lat_ms, o.lat_ms);
    lat_due_ns.insert(lat_due_ns.end(), o.lat_due_ns.begin(),
                      o.lat_due_ns.end());
    cat(&late_ms, o.late_ms);
    cat(&send_us, o.send_us);
    cat(&rtt_us, o.rtt_us);
    sent += o.sent;
    errors += o.errors;
    busy += o.busy;
    unanswered += o.unanswered;
    if (fatal.empty()) fatal = o.fatal;
  }
  uint64_t failed() const { return errors + busy + unanswered; }
};

/// p50, p90 and p99 of each `window_s` slice (by due time) of a phase's
/// latency samples. A slice enters a list only when it has at least ten
/// samples beyond that percentile.
struct Windows {
  std::vector<double> p50, p90, p99;
};
Windows WindowPercentiles(const PhaseSamples& s, double window_s) {
  Windows out;
  if (s.lat_ms.empty()) return out;
  const uint64_t t0 =
      *std::min_element(s.lat_due_ns.begin(), s.lat_due_ns.end());
  const uint64_t w = static_cast<uint64_t>(window_s * 1e9);
  std::vector<std::vector<double>> windows;
  for (size_t i = 0; i < s.lat_ms.size(); ++i) {
    const size_t k = (s.lat_due_ns[i] - t0) / w;
    if (k >= windows.size()) windows.resize(k + 1);
    windows[k].push_back(s.lat_ms[i]);
  }
  for (const std::vector<double>& win : windows) {
    const double q90 = ReportablePercentile(win, 0.90);
    if (q90 < 0.0) continue;
    out.p50.push_back(Summarize(win).p50);
    out.p90.push_back(q90);
    const double q99 = ReportablePercentile(win, 0.99);
    if (q99 >= 0.0) out.p99.push_back(q99);
  }
  return out;
}

struct Pending {
  uint64_t due_ns;
  uint64_t send_ns;
  MsgType op;
  uint32_t slot;
  uint32_t steps;
};

/// Next sendable slot (round robin), or -1 while every slot waits on an
/// answer (an Open, or the last Advances before its Close).
int PickSlot(LoadConn* c) {
  for (size_t i = 0; i < c->slots.size(); ++i) {
    const size_t k = (c->rr + i) % c->slots.size();
    const LoadSlot& s = c->slots[k];
    const bool closing_early = s.state == LoadSlot::State::kReady &&
                               s.remaining == 0 && s.inflight > 0;
    if (s.state != LoadSlot::State::kOpening && !closing_early) {
      c->rr = k + 1;
      return static_cast<int>(k);
    }
  }
  return -1;
}

/// The slot's next request: Open, Advance of up to kStepsPerAdvance
/// steps, or Close once its replay is used up.
std::string NextRequest(LoadConn* c, uint32_t k, MsgType* op,
                        uint32_t* steps) {
  LoadSlot& s = c->slots[k];
  *steps = 0;
  if (s.state == LoadSlot::State::kNeedOpen) {
    s.state = LoadSlot::State::kOpening;
    *op = MsgType::kOpen;
    return rpe::EncodeOpenRequest(
        {static_cast<uint32_t>(c->rng.Next() & 0xffffffffu)});
  }
  if (s.remaining == 0) {
    s.state = LoadSlot::State::kNeedOpen;
    *op = MsgType::kClose;
    return rpe::EncodeCloseRequest({s.session});
  }
  *steps = std::min(kStepsPerAdvance, s.remaining);
  s.remaining -= *steps;
  *op = MsgType::kAdvance;
  return rpe::EncodeAdvanceRequest({s.session, *steps});
}

void HandleResponse(LoadConn* c, const Pending& p, const WireFrame& f,
                    PhaseSamples* out) {
  if (f.type != p.op) {
    out->fatal = "response type does not match the request order";
    return;
  }
  LoadSlot& s = c->slots[p.slot];
  --s.inflight;
  if (!f.ok()) {
    if (f.status == rpe::kStatusBusy) {
      ++out->busy;
    } else {
      ++out->errors;
    }
    if (p.op == MsgType::kOpen) s.state = LoadSlot::State::kNeedOpen;
    if (p.op == MsgType::kAdvance) s.remaining += p.steps;  // not executed
    return;
  }
  switch (p.op) {
    case MsgType::kOpen: {
      const auto r = rpe::DecodeOpenResponse(f.payload);
      if (!r.ok()) {
        out->fatal = "undecodable OpenResponse";
        return;
      }
      s.session = r->session_id;
      s.remaining = r->num_observations;
      s.state = LoadSlot::State::kReady;
      ++c->opens;
      return;
    }
    case MsgType::kAdvance: {
      const auto r = rpe::DecodeAdvanceResponse(f.payload);
      if (!r.ok()) {
        out->fatal = "undecodable AdvanceResponse";
        return;
      }
      c->steps += r->steps;
      if (r->done) s.remaining = 0;
      return;
    }
    case MsgType::kClose:
      ++c->closes;
      return;
    default:
      out->fatal = "unexpected response type";
  }
}

/// One connection's share of a phase: requests due every 1/rate seconds
/// from start_ns, each sent when due (or as soon after as the thread can;
/// the frames due by then go out together), then a drain of every
/// outstanding response. The thread busy-polls throughout.
PhaseSamples RunConnPhase(LoadConn* c, double rate, uint64_t start_ns,
                          uint64_t end_ns, bool traced, bool record) {
  PhaseSamples out;
  const double interval = 1e9 / rate;
  double next_due = static_cast<double>(start_ns);
  const uint64_t drain_deadline = end_ns + 5000000000ull;
  std::deque<Pending> pending;
  std::string batch;
  while (out.fatal.empty()) {
    uint64_t now = NowNs();
    batch.clear();
    const size_t first_new = pending.size();
    while (next_due <= static_cast<double>(now) &&
           next_due < static_cast<double>(end_ns) &&
           pending.size() - first_new < kMaxFramesPerSend) {
      const int k = PickSlot(c);
      if (k < 0) break;
      MsgType op;
      uint32_t steps = 0;
      batch += NextRequest(c, static_cast<uint32_t>(k), &op, &steps);
      pending.push_back({static_cast<uint64_t>(next_due), 0, op,
                         static_cast<uint32_t>(k), steps});
      ++c->slots[k].inflight;
      next_due += interval;
    }
    if (!batch.empty()) {
      const uint64_t t0 = NowNs();
      if (!c->wire.SendAll(batch).ok()) {
        out.fatal = "send failed";
        break;
      }
      const uint64_t t1 = NowNs();
      for (size_t i = first_new; i < pending.size(); ++i) {
        pending[i].send_ns = t0;
        if (record) {
          ++out.sent;
          out.late_ms.push_back(
              static_cast<double>(t0 - pending[i].due_ns) * 1e-6);
          if (traced) {
            out.send_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
          }
        }
      }
      now = t1;
    }
    const bool sending = next_due < static_cast<double>(end_ns);
    if (!sending && pending.empty()) break;
    if (now > drain_deadline) {
      out.unanswered += pending.size();
      out.fatal = "responses still outstanding 5 s after the phase";
      break;
    }
    pollfd p{c->wire.fd(), POLLIN, 0};
    ::poll(&p, 1, 0);
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    if (!c->wire.ReadAvailable().ok()) {
      out.fatal = "connection lost";
      break;
    }
    const uint64_t t_recv = NowNs();
    WireFrame frame;
    while (out.fatal.empty()) {
      const auto got = c->wire.NextFrame(&frame);
      if (!got.ok()) {
        out.fatal = "undecodable frame from server";
        break;
      }
      if (!*got) break;
      if (pending.empty()) {
        out.fatal = "response without a request";
        break;
      }
      const Pending req = pending.front();
      pending.pop_front();
      if (record) {
        // A refused or failed request misses every latency limit.
        out.lat_ms.push_back(
            frame.ok() ? static_cast<double>(t_recv - req.due_ns) * 1e-6
                       : std::numeric_limits<double>::infinity());
        out.lat_due_ns.push_back(req.due_ns);
        if (traced) {
          out.rtt_us.push_back(static_cast<double>(t_recv - req.send_ns) *
                               1e-3);
        }
      }
      HandleResponse(c, req, frame, &out);
    }
  }
  return out;
}

/// Run one phase at `rate` frames/s (total) over every load connection,
/// one thread each, their schedules staggered by a fraction of the
/// per-connection interval.
PhaseSamples RunPhase(const std::vector<std::unique_ptr<LoadConn>>& conns,
                      double rate, double seconds, bool traced, bool record) {
  const double per_conn = rate / static_cast<double>(conns.size());
  const uint64_t start = NowNs() + 2000000;
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<PhaseSamples> parts(conns.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < conns.size(); ++i) {
    const uint64_t offset =
        static_cast<uint64_t>(1e9 / per_conn * static_cast<double>(i) /
                              static_cast<double>(conns.size()));
    threads.emplace_back([&, i, offset] {
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
      parts[i] = RunConnPhase(conns[i].get(), per_conn, start + offset, end,
                              traced, record);
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseSamples all;
  for (PhaseSamples& p : parts) all.Merge(std::move(p));
  return all;
}

/// Replay every session the load connections still hold to its end and
/// close it (synchronously), so each opened session completes.
Status FinishAll(const std::vector<std::unique_ptr<LoadConn>>& conns) {
  for (const auto& c : conns) {
    for (LoadSlot& s : c->slots) {
      if (s.state != LoadSlot::State::kReady) continue;
      while (s.remaining > 0) {
        const uint32_t steps = std::min(s.remaining, rpe::kMaxAdvanceSteps);
        RPE_ASSIGN_OR_RETURN(
            WireFrame f,
            c->wire.Call(rpe::EncodeAdvanceRequest({s.session, steps})));
          if (!f.ok()) return Status::Internal("advance failed");
        RPE_ASSIGN_OR_RETURN(rpe::AdvanceResponse adv,
                             rpe::DecodeAdvanceResponse(f.payload));
        c->steps += adv.steps;
        s.remaining =
            adv.done ? 0 : s.remaining - std::min(s.remaining, adv.steps);
      }
      RPE_ASSIGN_OR_RETURN(WireFrame f,
                           c->wire.Call(rpe::EncodeCloseRequest({s.session})));
      if (!f.ok()) return Status::Internal("close failed");
      ++c->closes;
      s.state = LoadSlot::State::kNeedOpen;
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Online ingest + publish-lag probe (one more connection).

struct IngestResult {
  uint64_t offered = 0, accepted = 0, dropped = 0, shed = 0, errors = 0;
  std::vector<double> publish_lag_s;
  std::string fatal;
};

/// Offer kIngestBatch records every kIngestPeriodS until `stop`; after
/// each ack that completes another multiple of kRetrainEvery accepted
/// records,
/// poll kStats until model_generation passes the matching generation.
void RunIngest(WireConn* conn, const std::vector<rpe::PipelineRecord>& pool,
               uint64_t seed, uint64_t gen0,
               const std::atomic<bool>* stop, IngestResult* out) {
  SeededRng rng(seed ^ 0x1d6e57ull);
  struct Awaiting {
    double t_ack;
    uint64_t generation;
  };
  std::deque<Awaiting> awaiting;
  uint64_t cycles = 0;
  double next = NowS();
  while (!stop->load() && out->fatal.empty()) {
    const double now = NowS();
    if (now >= next) {
      rpe::IngestBatchRequest req;
      for (size_t i = 0; i < kIngestBatch; ++i) {
        req.records.push_back(pool[rng.Next() % pool.size()]);
      }
      const auto f = conn->Call(rpe::EncodeIngestBatchRequest(req));
      const double t_ack = NowS();
      out->offered += req.records.size();
      if (!f.ok()) {
        out->fatal = "ingest connection failed";
        break;
      }
      if (f->status == rpe::kStatusBusy) {
        out->shed += req.records.size();
      } else if (!f->ok()) {
        ++out->errors;
      } else {
        const auto ack = rpe::DecodeIngestResponse(f->payload);
        if (!ack.ok()) {
          out->fatal = "undecodable ingest ack";
          break;
        }
        out->accepted += ack->accepted;
        out->dropped += ack->dropped;
        while (out->accepted >= (cycles + 1) * kRetrainEvery) {
          ++cycles;
          awaiting.push_back({t_ack, gen0 + cycles});
        }
      }
      next += kIngestPeriodS;
      continue;
    }
    if (!awaiting.empty()) {
      const auto stats = FetchStats(conn);
      if (!stats.ok()) {
        out->fatal = "stats poll failed";
        break;
      }
      const double t_seen = NowS();
      while (!awaiting.empty() &&
             stats->model_generation >= awaiting.front().generation) {
        out->publish_lag_s.push_back(t_seen - awaiting.front().t_ack);
        awaiting.pop_front();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(
        static_cast<int64_t>(std::max(0.0, next - NowS()) * 1e6) + 1));
  }
}

// ---------------------------------------------------------------------------
// In-process replica of the server's replay corpus (the same workload
// config, the same RunQuery/MakeRecord path, the same training), timed per
// layer from here.

struct Replica {
  rpe::Workload workload;
  /// runs[i] replays query i (when every query succeeds).
  std::vector<rpe::OwnedRun> runs;
  std::vector<rpe::PipelineRecord> records;
  std::shared_ptr<const rpe::SelectorStack> stack;
  // Layer timings.
  double build_s = 0.0;
  std::vector<double> plan_ms, exec_ms, record_ms, fit_s;
  uint64_t failed_queries = 0;
};

/// Execute every query and train the initial stack.
Status BuildReplica(Replica* r) {
  const rpe::WorkloadConfig config = ReplicaConfig();
  double t = NowS();
  RPE_ASSIGN_OR_RETURN(r->workload, rpe::BuildWorkload(config));
  r->build_s = NowS() - t;
  rpe::RunOptions options;
  rpe::CardinalityEstimator card(r->workload.catalog.get());
  for (const rpe::QuerySpec& qs : r->workload.queries) {
    // serve-tcp plans every query with a fresh planner (RunQuery).
    rpe::Planner planner(r->workload.catalog.get(), &card, options.planner);
    const uint64_t t0 = NowNs();
    auto plan = planner.Plan(qs);
    const uint64_t t1 = NowNs();
    if (!plan.ok()) {
      ++r->failed_queries;
      continue;
    }
    auto run = rpe::ExecutePlan(**plan, *r->workload.catalog, options.exec);
    const uint64_t t2 = NowNs();
    if (!run.ok()) {
      ++r->failed_queries;
      continue;
    }
    rpe::OwnedRun owned;
    owned.plan = std::move(plan).ValueOrDie();
    owned.result = std::move(run).ValueOrDie();
    owned.result.plan = owned.plan.get();
    for (const rpe::Pipeline& pipeline : owned.result.pipelines) {
      rpe::PipelineView view{&owned.result, &pipeline};
      rpe::PipelineRecord record;
      if (rpe::MakeRecord(view, config.name, qs.name, "", &record,
                          options.min_observations)) {
        r->records.push_back(std::move(record));
      }
    }
    const uint64_t t3 = NowNs();
    r->plan_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    r->exec_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
    r->record_ms.push_back(static_cast<double>(t3 - t2) * 1e-6);
    r->runs.push_back(std::move(owned));
  }
  rpe::MartParams params = rpe::EstimatorSelector::DefaultParams();
  params.num_trees = static_cast<int>(kTrees);
  auto stack = std::make_shared<rpe::SelectorStack>();
  t = NowS();
  stack->static_selector = rpe::EstimatorSelector::Train(
      r->records, rpe::PoolSix(), /*use_dynamic_features=*/false, params);
  r->fit_s.push_back(NowS() - t);
  t = NowS();
  stack->dynamic_selector = rpe::EstimatorSelector::Train(
      r->records, rpe::PoolSix(), /*use_dynamic_features=*/true, params);
  r->fit_s.push_back(NowS() - t);
  r->stack = std::move(stack);
  return Status::OK();
}

/// Replay run `run_index` step by step over the wire; returns the
/// progress after every step.
Result<std::vector<double>> ReplayOverWire(WireConn* conn, uint32_t run_index,
                                           uint32_t* observations) {
  RPE_ASSIGN_OR_RETURN(WireFrame of,
                       conn->Call(rpe::EncodeOpenRequest({run_index})));
  if (!of.ok()) return Status::Internal("verify open failed");
  RPE_ASSIGN_OR_RETURN(rpe::OpenResponse open,
                       rpe::DecodeOpenResponse(of.payload));
  *observations = open.num_observations;
  std::vector<double> series;
  for (uint32_t i = 0; i < open.num_observations; ++i) {
    RPE_ASSIGN_OR_RETURN(
        WireFrame af,
        conn->Call(rpe::EncodeAdvanceRequest({open.session_id, 1})));
    if (!af.ok()) return Status::Internal("verify advance failed");
    RPE_ASSIGN_OR_RETURN(rpe::AdvanceResponse adv,
                         rpe::DecodeAdvanceResponse(af.payload));
    if (adv.steps != 1) return Status::Internal("verify advance took no step");
    series.push_back(adv.progress);
  }
  RPE_ASSIGN_OR_RETURN(WireFrame cf,
                       conn->Call(rpe::EncodeCloseRequest({open.session_id})));
  if (!cf.ok()) return Status::Internal("verify close failed");
  return series;
}

double SeriesL1(const std::vector<double>& series,
                const rpe::QueryRunResult& run) {
  if (series.empty() || run.total_time <= 0.0) return 0.0;
  double sum = 0.0;
  for (size_t oi = 0; oi < series.size(); ++oi) {
    const double truth =
        std::clamp(run.observations[oi].vtime / run.total_time, 0.0, 1.0);
    sum += std::abs(series[oi] - truth);
  }
  return sum / static_cast<double>(series.size());
}

/// \brief In-process per-frame costs of the server's request path.
struct ServingLayers {
  std::vector<double> decode_us, encode_us, advance_us, open_us;
  uint64_t frames = 0, steps = 0;
};

/// Replay the replica's runs through an in-process ShardedMonitorService
/// with the frames the load sends (Open, Advance of kStepsPerAdvance,
/// Close), timing decode, the service call and encode of each frame.
ServingLayers MeasureServingLayers(const Replica& r) {
  ServingLayers out;
  rpe::ShardedMonitorService::Options so;
  so.num_shards = 1;
  rpe::ShardedMonitorService service(r.stack, so);
  rpe::FrameDecoder decoder;
  WireFrame frame;
  // Frame reassembly plus the typed payload decode of one request.
  auto decode = [&](const std::string& bytes, auto&& typed_decode) {
    const uint64_t t0 = NowNs();
    decoder.Feed(bytes);
    const auto got = decoder.Next(&frame);
    auto request = typed_decode(frame.payload);
    out.decode_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    ++out.frames;
    if (!got.ok() || !*got) {
      request = Status::Internal("frame did not reassemble");
    }
    return request;
  };
  auto timed_encode = [&](auto&& encode_fn) {
    const uint64_t t0 = NowNs();
    const std::string bytes = encode_fn();
    out.encode_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    return bytes.size();
  };
  for (size_t i = 0; i < r.runs.size(); ++i) {
    const auto oreq = decode(
        rpe::EncodeOpenRequest({static_cast<uint32_t>(i)}),
        rpe::DecodeOpenRequest);
    const uint64_t t0 = NowNs();
    const auto id = service.OpenSession(&r.runs[i].result);
    out.open_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    if (!oreq.ok() || !id.ok()) break;
    timed_encode([&] {
      return rpe::EncodeOpenResponse(
          {*id, oreq->run_index,
           static_cast<uint32_t>(r.runs[i].result.observations.size())});
    });
    bool done = false;
    while (!done) {
      const auto areq = decode(
          rpe::EncodeAdvanceRequest({*id, kStepsPerAdvance}),
          rpe::DecodeAdvanceRequest);
      if (!areq.ok()) return out;
      rpe::AdvanceResponse resp;
      for (uint32_t s = 0; s < areq->max_steps; ++s) {
        const uint64_t a0 = NowNs();
        const auto step = service.Advance(*id);
        if (!step.ok()) break;
        out.advance_us.push_back(static_cast<double>(NowNs() - a0) * 1e-3);
        resp.progress = *step;
        ++resp.steps;
        ++out.steps;
      }
      const auto d = service.Done(*id);
      done = !d.ok() || *d || resp.steps == 0;
      resp.done = done ? 1 : 0;
      timed_encode([&] { return rpe::EncodeAdvanceResponse(resp); });
    }
    if (!decode(rpe::EncodeCloseRequest({*id}), rpe::DecodeCloseRequest)
             .ok()) {
      break;
    }
    (void)service.CloseSession(*id);
    timed_encode([] { return rpe::EncodeCloseResponse(); });
  }
  return out;
}

/// ModelPublisher wrapper that timestamps every SwapModels.
class TimedPublisher : public rpe::ModelPublisher {
 public:
  explicit TimedPublisher(rpe::ModelPublisher* inner) : inner_(inner) {}
  uint64_t SwapModels(std::shared_ptr<const rpe::SelectorStack> m) override {
    const uint64_t g = inner_->SwapModels(std::move(m));
    std::lock_guard<std::mutex> lock(mu_);
    swap_ns_.push_back(NowNs());
    return g;
  }
  std::vector<uint64_t> swaps() const {
    std::lock_guard<std::mutex> lock(mu_);
    return swap_ns_;
  }

 private:
  rpe::ModelPublisher* inner_;
  mutable std::mutex mu_;
  std::vector<uint64_t> swap_ns_;
};

/// The server's retrain → publish cycle in process: seed the corpus with
/// the replica's records, then push kRetrainEvery records at a time and
/// time push → SwapModels.
std::vector<double> MeasureRetrains(const Replica& r, int cycles) {
  rpe::ShardedMonitorService::Options so;
  so.num_shards = 1;
  rpe::ShardedMonitorService service(r.stack, so);
  TimedPublisher publisher(&service);
  rpe::RecordIngestQueue queue(1024);
  rpe::TrainerLoop::Options to;
  to.retrain_min_records = kRetrainEvery;
  to.max_corpus = kCorpusCap;
  to.min_corpus = std::min<size_t>(to.min_corpus,
                                   std::max<size_t>(r.records.size(), 1));
  to.pool = rpe::PoolSix();
  to.params = rpe::EstimatorSelector::DefaultParams();
  to.params.num_trees = static_cast<int>(kTrees);
  rpe::TrainerLoop trainer(&queue, &publisher, to);
  trainer.SeedCorpus(r.records);
  std::vector<double> out;
  size_t next = 0;
  for (int c = 0; c < cycles; ++c) {
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < kRetrainEvery; ++i) {
      queue.Push(r.records[next++ % r.records.size()]);
    }
    while (trainer.retrains() <= static_cast<uint64_t>(c)) {
      if (trainer.RunOnce() == 0 && queue.size() == 0 &&
          trainer.retrains() <= static_cast<uint64_t>(c)) {
        break;  // nothing left to drain and no retrain: give up
      }
    }
    const auto swaps = publisher.swaps();
    if (swaps.size() > static_cast<size_t>(c)) {
      out.push_back(static_cast<double>(swaps[c] - t0) * 1e-9);
    }
  }
  trainer.Stop();
  return out;
}

std::string Fmt(double v, int precision = 4) {
  std::ostringstream s;
  s.precision(precision);
  s << v;
  return s.str();
}

/// \brief What one server launch measured.
struct SessionResult {
  PhaseSamples nominal, traced;
  Windows windows;
  struct Rung {
    double rate;
    double p90;
    bool late_grows;
    uint64_t failed;
    /// Why the rung failed ("" when it passed).
    std::string miss;
    /// The second run of a rung that failed.
    bool retry;
  };
  std::vector<Rung> rungs;
  LadderResult ladder;
  IngestResult ingest;
  uint64_t verify_frames = 0;
  std::vector<double> l1;
  double peak_rss_mb = 0.0;
};

/// Drive one launched server: the nominal-rate phase (`nominal_s`), and on
/// the `last` launch also the output checks and, in traced runs, the
/// traced twin of the nominal phase, the ladder and the ingest probe.
Status RunSession(const Options& options, const Replica& replica,
                  const std::vector<size_t>& verify_idx, ServerProcess* server,
                  bool last, double nominal_s, uint64_t session_seed,
                  double* quiet_wait_s, SessionResult* r) {
  WireConn control;
  RPE_RETURN_NOT_OK(control.Connect(server->port()));
  RPE_ASSIGN_OR_RETURN(const rpe::WireStats before, FetchStats(&control));

  std::vector<std::unique_ptr<LoadConn>> conns;
  for (size_t i = 0; i < kConns; ++i) {
    conns.push_back(std::make_unique<LoadConn>(session_seed * 1000003 + i));
    RPE_RETURN_NOT_OK(conns.back()->wire.Connect(server->port()));
  }

  std::string fatal;
  auto wait_quiet = [&](const char* before) {
    while (fatal.empty()) {
      const PhaseSamples probe =
          RunPhase(conns, kNominalRate, kQuietProbeS, false, true);
      fatal = probe.fatal;
      const Windows w =
          WindowPercentiles(probe, kQuietProbeS / kWindowsPerRung);
      const double p90 =
          w.p90.size() * 2 > kWindowsPerRung ? Median(w.p90) : -1.0;
      if ((p90 >= 0.0 && p90 <= kP90LimitMs) ||
          *quiet_wait_s >= kQuietWaitS) {
        return;
      }
      std::cout << "quiet probe before the " << before
                << ": median window p90 "
                << (p90 >= 0 ? Fmt(p90) + " ms" : "n/a") << " (limit "
                << kP90LimitMs << " ms); probing again\n";
      *quiet_wait_s += kQuietProbeS;
    }
  };
  RunPhase(conns, kNominalRate, kWarmupS, false, /*record=*/false);
  wait_quiet("nominal phase");
  if (fatal.empty()) {
    r->nominal = RunPhase(conns, kNominalRate, nominal_s, false, true);
    fatal = r->nominal.fatal;
  }
  r->windows = WindowPercentiles(r->nominal, kWindowFrac * options.seconds);
  if (last && options.trace && fatal.empty()) {
    r->traced = RunPhase(conns, kNominalRate, nominal_s, true, true);
    fatal = r->traced.fatal;
  }
  if (last && options.trace && fatal.empty()) wait_quiet("ladder");
  if (last && options.trace && fatal.empty()) {
    const double rung_s = kRungFrac * options.seconds;
    const size_t budget = static_cast<size_t>(
        std::max(1.0, std::floor(kLadderFrac / kRungFrac) - 1));
    r->ladder = SearchLadder(
        kLadder,
        [&](double rate) {
          PhaseSamples s = RunPhase(conns, rate, rung_s, false, true);
          if (!s.fatal.empty()) fatal = s.fatal;
          const Windows w = WindowPercentiles(s, rung_s / kWindowsPerRung);
          const double p90 =
              w.p90.size() * 2 > kWindowsPerRung ? Median(w.p90) : -1.0;
          const bool grows = LatenessGrows(s.late_ms, kLateGrowthToleranceMs);
          std::string miss;
          if (!s.fatal.empty()) {
            miss = "load error";
          } else if (grows) {
            miss = "lateness grows";
          } else if (s.failed() * 100 > s.sent) {
            miss = "failures";
          } else if (p90 < 0.0) {
            miss = "too few windows";
          } else if (p90 > kP90LimitMs) {
            miss = "p90 over the limit";
          }
          const bool retry = !r->rungs.empty() &&
                             r->rungs.back().rate == rate &&
                             !r->rungs.back().miss.empty();
          r->rungs.push_back({rate, p90, grows, s.failed(), miss, retry});
          return miss.empty();
        },
        std::max<size_t>(budget, 1), kRungRetries);
  }
  if (!fatal.empty()) return Status::Internal("load: " + fatal);
  RPE_RETURN_NOT_OK(FinishAll(conns));

  // Output checks: replay the verified runs step by step over the wire.
  for (size_t v = 0; last && v < verify_idx.size(); ++v) {
    uint32_t observations = 0;
    RPE_ASSIGN_OR_RETURN(
        const std::vector<double> series,
        ReplayOverWire(&control, static_cast<uint32_t>(verify_idx[v]),
                       &observations));
    r->verify_frames += 2 + series.size();
    const rpe::QueryRunResult& run = replica.runs[verify_idx[v]].result;
    if (observations != run.observations.size()) {
      return Status::Internal("served run " + std::to_string(verify_idx[v]) +
                              " has another observation count than the "
                              "replica");
    }
    const rpe::ProgressMonitor monitor(&replica.stack->static_selector,
                                       &replica.stack->dynamic_selector);
    if (series != monitor.ReplayQueryProgress(run)) {
      return Status::Internal(
          "served progress of run " + std::to_string(verify_idx[v]) +
          " is not bit-identical to the in-process replay");
    }
    r->l1.push_back(SeriesL1(series, run));
  }
  if (last) {
    std::cout << "check: " << verify_idx.size()
              << " served sessions bit-identical to ProgressMonitor::"
                 "ReplayQueryProgress\n";
  }

  const bool ingest_probe = last && options.trace;
  if (ingest_probe) {
    // The ingest → retrain → publish path, measured over the wire for
    // eight retrain cycles after the checks above (a publish changes the
    // served progress) and with no session load.
    WireConn ingest_conn;
    RPE_RETURN_NOT_OK(ingest_conn.Connect(server->port()));
    std::atomic<bool> stop{false};
    std::thread ingest([&] {
      RunIngest(&ingest_conn, replica.records, session_seed,
                before.model_generation, &stop, &r->ingest);
    });
    std::this_thread::sleep_for(
        std::chrono::duration<double>(8 * kRetrainCycleS));
    stop = true;
    ingest.join();
    if (!r->ingest.fatal.empty()) {
      return Status::Internal("ingest: " + r->ingest.fatal);
    }
  }

  // kStats reconciliation against what this launch's client sent.
  RPE_ASSIGN_OR_RETURN(const rpe::WireStats after, FetchStats(&control));
  const uint64_t verified = last ? verify_idx.size() : 0;
  uint64_t client_opens = verified, client_closes = verified;
  uint64_t client_steps = r->verify_frames - 2 * verified;
  for (const auto& c : conns) {
    client_opens += c->opens;
    client_closes += c->closes;
    client_steps += c->steps;
  }
  const uint64_t opened = after.sessions_opened - before.sessions_opened;
  const uint64_t completed =
      after.sessions_completed - before.sessions_completed;
  const uint64_t wire_opened =
      after.wire_sessions_opened - before.wire_sessions_opened;
  const uint64_t wire_closed =
      after.wire_sessions_closed - before.wire_sessions_closed;
  const uint64_t steps = after.advance_steps - before.advance_steps;
  std::cout << "check: sessions opened " << opened << " completed "
            << completed << " (wire " << wire_opened << "/" << wire_closed
            << ", client " << client_opens << "/" << client_closes
            << "); advance steps " << steps << " (client " << client_steps
            << ")\n";
  if (opened != completed || wire_opened != wire_closed ||
      wire_opened != client_opens || wire_closed != client_closes ||
      steps != client_steps) {
    return Status::Internal("kStats session/step counters do not reconcile");
  }
  if (ingest_probe) {
    const IngestResult& in = r->ingest;
    const uint64_t acc = after.records_ingested - before.records_ingested;
    const uint64_t drop =
        after.records_ingest_dropped - before.records_ingest_dropped;
    const uint64_t shed =
        after.records_ingest_shed - before.records_ingest_shed;
    std::cout << "check: ingest offered " << in.offered << " = accepted "
              << acc << " + dropped " << drop << " + shed " << shed
              << " (client acks " << in.accepted << "/" << in.dropped << "/"
              << in.shed << "); retrains " << after.retrains - before.retrains
              << "\n";
    if (in.offered != acc + drop + shed || acc != in.accepted ||
        drop != in.dropped || shed != in.shed) {
      return Status::Internal("kStats ingest counters do not reconcile");
    }
    if (in.publish_lag_s.empty()) {
      return Status::Internal("no retrain was published during the probe");
    }
  }
  r->peak_rss_mb = server->PeakRssMb();
  return Status::OK();
}

}  // namespace

void RunServeWorkload(const Options& options, Outcome* out) {
  // 1. In-process replica (before any server runs, so nothing contends):
  //    the verified runs' ground truth, the bit-identical reference, the
  //    ingest record pool, and — traced — the per-layer timings.
  // The verified runs are a fixed, evenly spaced sample of the corpus (not
  // drawn from the seed), so selection_l1 compares like with like.
  std::vector<size_t> verify_idx;
  for (size_t q = 0; q < kQueries && verify_idx.size() < kVerifyRuns;
       q += std::max<size_t>(kQueries / kVerifyRuns, 1)) {
    verify_idx.push_back(q);
  }
  Replica replica;
  {
    const Status st = BuildReplica(&replica);
    if (!st.ok()) return out->Fail("replica: " + st.ToString());
    if (replica.failed_queries > 0) {
      return out->Fail("replica: a query failed to plan or execute");
    }
  }
  ServingLayers layers;
  std::vector<double> retrain_s;
  if (options.trace) {
    layers = MeasureServingLayers(replica);
    retrain_s = MeasureRetrains(replica, 3);
  }

  // 2. Launch the server kLaunches times (setup_s is the median); every
  //    launch takes a share of the nominal phase, and the last one also
  //    runs the ladder and the checks.
  const std::vector<std::string> args = ServerArgs();
  const double nominal_s = options.seconds / static_cast<double>(kLaunches);
  std::vector<double> setup_s;
  std::vector<SessionResult> sessions(kLaunches);
  double quiet_wait_s = 0.0;
  for (size_t i = 0; i < kLaunches; ++i) {
    ServerProcess server;
    const Status st = server.Launch(
        options.cli, args,
        options.log_dir + "/" + options.workload + ".server" +
            std::to_string(i) + ".log",
        120.0);
    if (!st.ok()) return out->Fail("server launch: " + st.ToString());
    setup_s.push_back(server.ready_s());
    const Status run = RunSession(options, replica, verify_idx, &server,
                                  i + 1 == kLaunches, nominal_s,
                                  options.seed + i, &quiet_wait_s,
                                  &sessions[i]);
    if (!run.ok()) return out->Fail(run.ToString());
    if (!server.Stop()) {
      return out->Fail("server did not exit cleanly on SIGTERM");
    }
  }
  SessionResult& last = sessions.back();

  // 3. Metrics.
  const double last_untraced_p50 = Summarize(last.nominal.lat_ms).p50;
  PhaseSamples nominal;
  std::vector<double> window_p50, window_p99, window_p90;
  for (SessionResult& sr : sessions) {
    window_p90.insert(window_p90.end(), sr.windows.p90.begin(),
                      sr.windows.p90.end());
    nominal.Merge(std::move(sr.nominal));
    window_p50.insert(window_p50.end(), sr.windows.p50.begin(),
                      sr.windows.p50.end());
    window_p99.insert(window_p99.end(), sr.windows.p99.begin(),
                      sr.windows.p99.end());
  }
  const Summary lat = Summarize(nominal.lat_ms);
  const Summary late = Summarize(nominal.late_ms);
  if (window_p90.empty()) return out->Fail("too few samples for a p90");
  if (LatenessGrows(nominal.late_ms, kLateGrowthToleranceMs)) {
    return out->Fail(
        "invalid run: the load generator's lateness grew at the nominal "
        "rate (" + FormatSummary(late, "ms") + ")");
  }
  const IngestResult& ingest = last.ingest;
  const uint64_t ingest_failed = ingest.dropped + ingest.shed + ingest.errors;
  out->attempted =
      nominal.sent + last.traced.sent + last.verify_frames + ingest.offered;
  out->failed = nominal.failed() + last.traced.failed() + ingest_failed;
  double l1_mean = 0.0;
  for (double v : last.l1) l1_mean += v / static_cast<double>(last.l1.size());

  std::cout << "setup: serve-tcp ready in "
            << FormatSummary(Summarize(setup_s), "s") << "\n"
            << "quiet probes: " << quiet_wait_s
            << " s spent on probes that missed the limit\n"
            << "request (nominal " << kNominalRate << " frames/s over "
            << kConns << " conns, " << kStepsPerAdvance
            << "-step Advance, " << sessions.size() << " launch(es)): "
            << FormatSummary(lat, "ms") << "\n"
            << "request windows: median p50 " << Median(window_p50)
            << " ms, p90 " << Median(window_p90)
            << " ms (windows=" << window_p90.size() << "), p99 "
            << Median(window_p99) << " ms (windows=" << window_p99.size()
            << ")\n"
            << "late_ms (load generator lateness): p50 " << late.p50
            << " ms, max " << late.max << " ms (n=" << late.n << ")\n";
  // The lowest failing rung above the sustained rate ended the search.
  const SessionResult::Rung* ceiling = nullptr;
  for (const SessionResult::Rung& r : last.rungs) {
    std::cout << "ladder rung " << Fmt(r.rate, 6)
              << (r.retry ? " frames/s (run again): median window p90 "
                          : " frames/s: median window p90 ")
              << (r.p90 >= 0 ? Fmt(r.p90) + " ms" : "n/a") << " (limit "
              << kP90LimitMs << " ms), lateness "
              << (r.late_grows ? "grows" : "steady") << ", failed "
              << r.failed << " -> "
              << (r.miss.empty() ? "pass" : "FAIL: " + r.miss) << "\n";
    if (!r.miss.empty() && r.rate > last.ladder.sustained &&
        (ceiling == nullptr || r.rate < ceiling->rate)) {
      ceiling = &r;
    }
  }
  if (!last.rungs.empty()) {
    std::cout << "ladder: sustained " << Fmt(last.ladder.sustained, 6)
              << " frames/s; "
              << (ceiling != nullptr
                      ? "the next rung up failed on " + ceiling->miss
                      : std::string("no rung failed within the budget"))
              << "\n";
  }
  if (!ingest.publish_lag_s.empty()) {
    std::cout << "publish_lag_s: "
              << FormatSummary(Summarize(ingest.publish_lag_s), "s") << "\n";
  }
  std::cout << "selection_l1: " << l1_mean << " over " << last.l1.size()
            << " served sessions vs true progress\n"
            << "failed_frac: " << out->failed << "/" << out->attempted
            << " operations (frames of the nominal phase and checks, plus "
               "ingest records offered)\n";

  if (!options.trace) {
    out->metrics["setup_s"] = Median(setup_s);
    out->metrics["request_p50_ms"] = Median(window_p50);
    out->metrics["request_p90_ms"] = Median(window_p90);
    out->metrics["selection_l1"] = l1_mean;
    out->metrics["peak_rss_mb"] = last.peak_rss_mb;
    return;
  }

  // Traced run: per-layer budget of one request and the trace overhead
  // (the last launch's traced phase against its own untraced phase).
  const PhaseSamples& traced = last.traced;
  const Summary send = Summarize(traced.send_us);
  const Summary rtt = Summarize(traced.rtt_us);
  const Summary tl = Summarize(traced.lat_ms);
  const Summary dec = Summarize(layers.decode_us);
  const Summary enc = Summarize(layers.encode_us);
  const Summary adv = Summarize(layers.advance_us);
  const Summary opn = Summarize(layers.open_us);
  const double steps_per_frame =
      layers.frames > 0 ? static_cast<double>(layers.steps) /
                              static_cast<double>(layers.frames)
                        : 0.0;
  const double server_us = dec.p50 + adv.p50 * steps_per_frame + enc.p50;
  const double residual = rtt.p50 - send.p50 - server_us;
  const Summary tlate = Summarize(traced.late_ms);
  std::cout << "trace: client send " << FormatSummary(send, "us")
            << "; rtt " << FormatSummary(rtt, "us") << "\n"
            << "trace: in-process decode " << FormatSummary(dec, "us")
            << "; advance/step " << FormatSummary(adv, "us")
            << "; encode " << FormatSummary(enc, "us") << "; open "
            << FormatSummary(opn, "us") << "\n"
            << "trace: budget late " << tlate.p50 * 1e3 << " + send "
            << send.p50 << " + decode " << dec.p50 << " + advance "
            << adv.p50 * steps_per_frame << " + encode " << enc.p50
            << " + residual " << residual << " = "
            << tlate.p50 * 1e3 + rtt.p50 << " us vs request p50 "
            << tl.p50 * 1e3 << " us\n";
  auto& m = out->metrics;
  m["client.send_us"] = send.p50;
  m["client.rtt_us"] = rtt.p50;
  m["client.rtt_p99_us"] = ReportablePercentile(traced.rtt_us, 0.99);
  m["loopback.residual_us"] = residual;
  m["wire.decode_us"] = dec.p50;
  m["wire.encode_us"] = enc.p50;
  m["wire.frames"] = static_cast<double>(layers.frames);
  m["serving.open_us"] = opn.p50;
  m["serving.advance_us"] = adv.p50;
  m["serving.steps"] = static_cast<double>(layers.steps);
  m["ingest.records"] = static_cast<double>(ingest.accepted);
  m["ingest.shed"] = static_cast<double>(ingest.shed);
  m["ingest.dropped"] = static_cast<double>(ingest.dropped);
  m["trainer.retrain_s"] = Median(retrain_s);
  m["trainer.retrains"] = static_cast<double>(retrain_s.size());
  m["publish_lag_s"] = Median(ingest.publish_lag_s);
  m["throughput_per_s"] = last.ladder.sustained;
  m["request_p99_ms"] = Median(window_p99);
  m["failed_frac"] = static_cast<double>(out->failed) /
                     static_cast<double>(std::max<uint64_t>(out->attempted, 1));
  m["load.late_p50_ms"] = late.p50;
  m["load.late_max_ms"] = late.max;
  m["workload.build_s"] = replica.build_s;
  double plan_total = 0.0, exec_total = 0.0, rec_total = 0.0, fit_total = 0.0;
  for (double v : replica.plan_ms) plan_total += v;
  for (double v : replica.exec_ms) exec_total += v;
  for (double v : replica.record_ms) rec_total += v;
  for (double v : replica.fit_s) fit_total += v;
  m["optimizer.plan_ms"] = plan_total;
  m["optimizer.plan_p99_ms"] =
      std::max(0.0, ReportablePercentile(replica.plan_ms, 0.99));
  const Summary ex = Summarize(replica.exec_ms);
  m["exec.execute_s"] = exec_total * 1e-3;
  m["exec.query_p50_ms"] = ex.p50;
  m["exec.query_max_s"] = ex.max * 1e-3;
  m["exec.slowest_share"] = exec_total > 0 ? ex.max / exec_total : 0.0;
  m["exec.queries"] = static_cast<double>(replica.exec_ms.size());
  m["selection.record_ms"] =
      replica.record_ms.empty() ? 0.0 : rec_total / replica.record_ms.size();
  m["selection.records"] = static_cast<double>(replica.records.size());
  m["mart.fit_s"] =
      replica.fit_s.empty() ? 0.0 : fit_total / replica.fit_s.size();
  m["mart.fits"] = static_cast<double>(replica.fit_s.size());
  m["obs.trace_overhead"] = tl.p50 / last_untraced_p50 - 1.0;
}

}  // namespace perfbench
