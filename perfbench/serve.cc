// The serve_mix workload: specmined in its own process on a loopback
// ephemeral port, loaded by an open-loop generator in this process over at
// most kConnections keep-alive connections.
//
//   set-up     spawn the server, wait for its port, serve one request per
//              corpus (repeated kSetupRepeats times; the last server stays);
//   job        the read catalog sequentially on one connection, once
//              before each reference cycle, kJobPasses times;
//   reference  reads at kReferenceRps, one cycle of the fixed order at a
//              time, with kAppends appends on a fixed schedule, each
//              followed by a warm full re-mine;
//   ladder     reads at rising fixed rates until one misses the p99 limit
//              or its backlog grows, one step after each reference cycle;
//   checks     every distinct response body against the same task run
//              in-process through Engine and json_results; each append
//              replayed through AppendSession on a copy of the corpus, with
//              the re-mine compared to the server's and, after the last
//              append, a warm re-mine compared to a cold one.
//
// Requests are due on a fixed schedule (evenly spaced, the catalog in a
// fixed weighted order), and each latency is timed from its due time.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <set>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/inputs.h"
#include "perfbench/mining.h"
#include "src/engine/phase1_cache.h"
#include "src/support/json_reader.h"
#include "src/support/net.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Kind = TaskSpec::Kind;
using specmine::Engine;
using specmine::Result;

constexpr size_t kConnections = 4;
constexpr int kSetupRepeats = 7;
constexpr size_t kJobPasses = 5;
constexpr size_t kAppends = 15;
static_assert(kAppends <= kAppendModules);
constexpr double kReferenceRps = 10;
// Shares of the run for the reference cycles and the ladder.
constexpr double kReferenceShare = 0.5;
constexpr double kLadderShare = 0.4;
constexpr double kAppendLeadSlots = 1.5;
// The ladder: the fixed rates kLadderBase * 1.05^k, each tried for
// kStepSeconds. The search climbs every kCoarseStride-th rung from
// kLadderStart until one misses, then bisects the rungs in between.
constexpr double kLadderBase = 10;
constexpr int kLadderStart = 14;  // 19.8/s
constexpr int kCoarseStride = 5;  // x1.28
constexpr double kStepSeconds = 1.5;
// A step passes when its read p99 stays within this limit, no more than
// kConnections requests wait unsent at its end, and it is valid: the
// generator's own p99 lateness stays within kMaxGeneratorLagMs.
constexpr double kReadP99LimitMs = 1500;
constexpr double kMaxGeneratorLagMs = 10;
// The full re-mine of the modular corpus after each append.
// One thread: at two, the 5-15 ms re-mine waits for two of the host's
// shared cores at once, and its time moved more between identical runs.
constexpr double kRemineMinSup = 0.05;
constexpr int kRemineThreads = 1;

// One distinct read: where it goes, and the in-process task it must equal.
struct Read {
  std::string corpus;  // Registered name; its file is <dir>/<corpus>.smdb.
  std::string path;
  std::string body;
  TaskSpec spec;
  int weight;  // Occurrences per cycle of the fixed request order.
};

// Light reads of the Fig. 4/5 corpora (a few ms to tens of ms each) six
// times per cycle, and four heavy reads (hundreds of ms; the full QUEST set
// returns about 4 MB of JSON) once: weight 1 marks a heavy read. (Pairs on
// the QUEST corpus take over ten seconds whatever min_sat is, so they stay
// out.)
std::vector<Read> Catalog() {
  const auto read = [](const std::string& corpus, const char* path,
                       const std::string& fields, TaskSpec spec,
                       int weight) {
    return Read{corpus, path,
                "{\"corpus\": \"" + corpus + "\", " + fields + "}", spec,
                weight};
  };
  return {
      read("txn", "/mine/patterns", "\"min_sup\": 0.6, \"threads\": 1",
           {Kind::kClosed, 0.6}, 6),
      read("sec", "/mine/rules",
           "\"min_ssup\": 0.8, \"min_conf\": 0.8, \"threads\": 1",
           {Kind::kNrRules, 0.8, 0.8}, 6),
      read("txn", "/mine/pairs", "\"min_sat\": 0.9", {Kind::kPairs, 0.9}, 6),
      read("sec", "/mine/pairs", "\"min_sat\": 0.9", {Kind::kPairs, 0.9}, 6),
      read("sec", "/mine/patterns", "\"min_sup\": 0.6, \"threads\": 1",
           {Kind::kClosed, 0.6}, 6),
      read("txn", "/mine/rules",
           "\"min_ssup\": 0.8, \"min_conf\": 0.8, \"threads\": 1",
           {Kind::kNrRules, 0.8, 0.8}, 1),
      read("quest", "/mine/patterns", "\"min_sup\": 0.04, \"threads\": 1",
           {Kind::kClosed, 0.04}, 1),
      read("quest", "/mine/rules",
           "\"min_ssup\": 0.08, \"min_conf\": 0.5, \"threads\": 1",
           {Kind::kNrRules, 0.08, 0.5}, 1),
      read("quest", "/mine/patterns",
           "\"min_sup\": 0.04, \"full\": true, \"threads\": 1",
           {Kind::kFull, 0.04}, 1),
  };
}

// ---------------------------------------------------------------------------
// HTTP over one keep-alive loopback connection.

struct Response {
  int status = 0;
  std::string body;
  double sent = 0, first_byte = 0, last_byte = 0;
};

class Connection {
 public:
  explicit Connection(uint16_t port) : port_(port) {}

  // Sends one request and reads the whole response; false on any
  // transport failure (the connection is then reopened on the next call).
  bool Do(const std::string& method, const std::string& path,
          const std::string& body, Response* out) {
    if (!socket_.valid()) {
      Result<specmine::Socket> s = specmine::ConnectTcp("127.0.0.1", port_);
      if (!s.ok()) return false;
      socket_ = s.TakeValueOrDie();
    }
    std::string request = method + " " + path +
                           " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                           "Content-Type: application/json\r\n"
                           "Content-Length: " +
                           std::to_string(body.size()) + "\r\n\r\n" + body;
    out->sent = Now();
    if (!socket_.WriteAll(request).ok()) return Fail();
    std::string data;
    size_t header_end = std::string::npos;
    size_t length = 0;
    char buffer[1 << 16];
    out->first_byte = 0;
    while (true) {
      Result<size_t> n = socket_.Read(buffer, sizeof(buffer));
      if (!n.ok() || *n == 0) return Fail();
      if (out->first_byte == 0) out->first_byte = Now();
      data.append(buffer, *n);
      if (header_end == std::string::npos) {
        header_end = data.find("\r\n\r\n");
        if (header_end == std::string::npos) continue;
        out->status = std::atoi(data.c_str() + data.find(' ') + 1);
        const std::string head = ToLower(data.substr(0, header_end));
        const size_t at = head.find("content-length:");
        if (at == std::string::npos) return Fail();
        length = std::strtoull(head.c_str() + at + 15, nullptr, 10);
      }
      if (data.size() >= header_end + 4 + length) break;
    }
    out->last_byte = Now();
    out->body = data.substr(header_end + 4, length);
    return true;
  }

 private:
  static std::string ToLower(std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    return s;
  }
  bool Fail() {
    socket_.Close();
    return false;
  }

  uint16_t port_;
  specmine::Socket socket_;
};

// ---------------------------------------------------------------------------
// The server process.

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  // Spawns \p binary with \p args and reads the bound port from its first
  // stdout line ("listening on http://HOST:PORT").
  bool Start(const std::string& binary, const std::vector<std::string>& args) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) return false;
    std::vector<std::string> all = {binary};
    all.insert(all.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : all) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      // The server must not outlive specbench, however specbench ends.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    if (pid_ < 0) {
      ::close(pipe_fds[0]);
      return false;
    }
    // The read end stays open until Stop(), so a later write by the server
    // to its stdout cannot fail.
    out_fd_ = pipe_fds[0];
    std::string line;
    char c;
    while (::read(out_fd_, &c, 1) == 1 && c != '\n') line += c;
    const size_t colon = line.rfind(':');
    port_ = colon == std::string::npos
                ? 0
                : static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
    return port_ != 0;
  }

  // Sends SIGTERM and waits for the process; returns its exit status.
  int Stop() {
    int status = 0;
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
    return status;
  }

  uint16_t port() const { return port_; }
  std::string pid() const { return std::to_string(pid_); }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

// Sum of the /metrics series whose name (with labels) starts with \p prefix.
double MetricSum(const std::string& text, const std::string& prefix) {
  double total = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (text.compare(pos, prefix.size(), prefix) == 0) {
      const size_t space = text.rfind(' ', eol);
      if (space != std::string::npos && space > pos) {
        total += std::strtod(text.c_str() + space + 1, nullptr);
      }
    }
    pos = eol + 1;
  }
  return total;
}

// The report fields a mining response carries.
struct ReportFields {
  double index_build_s = 0, mine_s = 0;
  uint64_t nodes = 0, patterns = 0, rules = 0, premises = 0, candidates = 0;
  uint64_t pruned = 0, scanned = 0, cached = 0;
};

// Parses only the leading "report" object of a result document, not the
// result array behind it (megabytes for the heavy reads).
ReportFields ParseReport(const std::string& body) {
  ReportFields f;
  const size_t end = body.find("\n  },\n");
  if (end == std::string::npos) return f;
  Result<specmine::JsonValue> parsed =
      specmine::ParseJson(body.substr(0, end + 4) + "\n}");
  if (!parsed.ok()) return f;
  const specmine::JsonValue* report = parsed->Find("report");
  if (report == nullptr) return f;
  uint64_t n = 0;
  const auto get = [&](const char* key, uint64_t* out) {
    if (report->GetUint(key, &n).ok()) *out = n;
  };
  report->GetDouble("index_build_seconds", &f.index_build_s);
  report->GetDouble("mine_seconds", &f.mine_s);
  get("nodes_visited", &f.nodes);
  get("patterns_emitted", &f.patterns);
  get("rules_emitted", &f.rules);
  get("premises_enumerated", &f.premises);
  get("candidate_rules", &f.candidates);
  get("subtrees_pruned", &f.pruned);
  get("shards_scanned", &f.scanned);
  get("shards_cached", &f.cached);
  return f;
}

// One scheduled operation of a step.
struct Op {
  double due = 0;
  int read = -1;            // Catalog index, or -1 for an append.
  std::string append_body;  // Appends: the request, built ahead of time.
};

struct OpResult {
  int read = -1;             // As in Op.
  bool ok = false;
  double latency_ms = 0;     // From the due time to the last byte.
  double lag_ms = 0;         // Generator's own lateness sending it.
  double service_ms = 0;     // Send to last byte.
  double mine_ms = 0;        // The server-reported index build plus mine.
  double remine_ms = 0;      // Appends only: the re-mine request.
  double completed = 0;
  double sent = 0;
  uint64_t digest = 0;
  uint64_t bytes = 0;        // Response body bytes.
  ReportFields report;
  std::string remine_body;   // Appends only.
};

class Serve {
 public:
  Serve(const RunConfig& config, Outcome& outcome)
      : config_(config),
        outcome_(outcome),
        tracer_(config.trace),
        reads_(Catalog()) {
    // The fixed request order: each read's occurrences at evenly spaced
    // points of the cycle, reads of equal weight staggered, so the heavy
    // reads are spread out and never hold both admission slots at once.
    std::vector<std::pair<double, int>> points;
    for (size_t i = 0; i < reads_.size(); ++i) {
      const int w = reads_[i].weight;
      int rank = 0, peers = 0;
      for (size_t j = 0; j < reads_.size(); ++j) {
        if (reads_[j].weight != w) continue;
        rank += j < i;
        ++peers;
      }
      for (int k = 0; k < w; ++k) {
        points.push_back(
            {(k + (rank + 0.5) / peers) / w, static_cast<int>(i)});
      }
    }
    std::sort(points.begin(), points.end());
    for (const auto& point : points) order_.push_back(point.second);
  }

  void Run();

 private:
  bool StartServer();
  bool ServeOnce(Connection& conn, const std::string& path,
                 const std::string& body, Response* response, uint64_t op);
  std::vector<OpResult> RunStep(double rps, double seconds, size_t appends,
                                double* backlog, double* gen_lag_p99);
  void RunOp(Connection& conn, const Op& op, OpResult* result);
  void CheckReads();
  void ReplayAppends();
  std::string Manifest() const { return config_.dir + "/mod.smdbset"; }
  void NoteIndexBuild(const ReportFields& report) {
    std::lock_guard<std::mutex> lock(seen_mu_);
    if (report.index_build_s > 0) index_build_s_.push_back(report.index_build_s);
  }

  const RunConfig& config_;
  Outcome& outcome_;
  Tracer tracer_;
  std::vector<Read> reads_;
  std::vector<int> order_;
  std::unique_ptr<ServerProcess> server_;
  std::atomic<uint64_t> next_op_{1};
  // Distinct response digests seen per catalog read.
  std::mutex seen_mu_;
  std::vector<std::set<uint64_t>> seen_ =
      std::vector<std::set<uint64_t>>(reads_.size());
  std::vector<std::string> remine_bodies_;  // In append order.
  std::vector<double> append_ms_, remine_ms_, index_build_s_;
  uint64_t appends_done_ = 0;
};

bool Serve::StartServer() {
  server_ = std::make_unique<ServerProcess>();
  const std::string& d = config_.dir;
  return server_->Start(
      config_.server_path,
      {"--port", "0", "--quiet", "--corpus", "txn=" + d + "/txn.smdb",
       "--corpus", "sec=" + d + "/sec.smdb", "--corpus",
       "quest=" + d + "/quest.smdb", "--corpus", "mod=" + Manifest()});
}

bool Serve::ServeOnce(Connection& conn, const std::string& path,
                      const std::string& body, Response* response,
                      uint64_t op) {
  const int root = tracer_.Begin("http.request", op);
  const bool ok = conn.Do("POST", path, body, response);
  if (ok) {
    tracer_.Add("http.send", op, root, response->sent, response->sent);
    tracer_.Add("http.first_byte", op, root, response->sent,
                response->first_byte);
    tracer_.Add("http.last_byte", op, root, response->first_byte,
                response->last_byte);
  }
  tracer_.End(root);
  return ok && response->status == 200;
}

void Serve::RunOp(Connection& conn, const Op& op, OpResult* result) {
  const uint64_t id = next_op_++;
  Response response;
  result->read = op.read;
  if (op.read >= 0) {
    const Read& read = reads_[static_cast<size_t>(op.read)];
    result->ok = ServeOnce(conn, read.path, read.body, &response, id);
    result->completed = Now();
    ::setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)), 0);
    result->report = ParseReport(response.body);
    result->mine_ms =
        (result->report.index_build_s + result->report.mine_s) * 1e3;
    result->bytes = response.body.size();
    result->digest = Digest(StripTimings(response.body));
    std::lock_guard<std::mutex> lock(seen_mu_);
    seen_[static_cast<size_t>(op.read)].insert(result->digest);
  } else {
    result->ok = ServeOnce(conn, "/corpora/mod/append", op.append_body,
                           &response, id);
    Response remine;
    char remine_body[128];
    std::snprintf(remine_body, sizeof(remine_body),
                  "{\"corpus\": \"mod\", \"min_sup\": %g, \"full\": true, "
                  "\"threads\": %d}",
                  kRemineMinSup, kRemineThreads);
    result->ok = result->ok &&
                 ServeOnce(conn, "/mine/patterns", remine_body, &remine, id);
    result->completed = Now();
    result->remine_ms = (remine.last_byte - remine.sent) * 1e3;
    NoteIndexBuild(ParseReport(remine.body));
    result->remine_body = std::move(remine.body);
  }
  result->sent = response.sent;
  result->service_ms = (response.last_byte - response.sent) * 1e3;
  result->latency_ms = (result->completed - op.due) * 1e3;
}

std::vector<OpResult> Serve::RunStep(double rps, double seconds,
                                     size_t appends, double* backlog,
                                     double* gen_lag_p99) {
  // The schedule: reads evenly spaced in the fixed catalog order, appends
  // ahead of the heavy reads. A step lasts the whole number of
  // request cycles nearest to \p seconds, so every step ends at the same
  // point of the cycle and end-of-step backlogs compare across rates.
  const size_t cycles = std::max<size_t>(
      1, static_cast<size_t>(std::lround(rps * seconds /
                                         static_cast<double>(order_.size()))));
  const size_t n = cycles * order_.size();
  seconds = static_cast<double>(n) / rps;
  std::vector<Op> ops;
  for (size_t i = 0; i < n; ++i) {
    ops.push_back({static_cast<double>(i) / rps,
                   order_[i % order_.size()], ""});
  }
  // Each append and its re-mine go kAppendLeadSlots request slots before a
  // heavy read is due, the appends spread evenly over the heavy reads, so
  // a re-mine does not share the server with one.
  std::vector<double> heavy_due;
  for (const Op& op : ops) {
    if (reads_[static_cast<size_t>(op.read)].weight == 1) {
      heavy_due.push_back(op.due);
    }
  }
  for (size_t a = 0; a < appends; ++a) {
    std::ifstream in(config_.dir + "/append_" +
                     std::to_string(appends_done_ + a) + ".txt");
    std::string body = "{\"traces\": [", line;
    for (bool first = true; std::getline(in, line); first = false) {
      body += (first ? "\"" : ", \"") + line + "\"";
    }
    body += "], \"seal\": true}";
    ops.push_back({heavy_due[a * heavy_due.size() / appends] -
                       kAppendLeadSlots / rps,
                   -1, std::move(body)});
  }
  const double start = Now() + 0.05;
  for (Op& op : ops) op.due += start;
  std::stable_sort(ops.begin(), ops.end(),
                   [](const Op& x, const Op& y) { return x.due < y.due; });
  std::vector<OpResult> results(ops.size());
  std::atomic<size_t> next{0};
  const double end = start + seconds;
  std::atomic<size_t> unsent_at_end{0};
  std::vector<std::thread> workers;
  for (size_t c = 0; c < kConnections; ++c) {
    workers.emplace_back([&] {
      // The generator must stay punctual while the server saturates the
      // cores, as a client on another machine would: it waits and sends at
      // nice -5 (a no-op without the privilege), and checks responses at
      // normal priority so it does not take the server's cores.
      const id_t tid = static_cast<id_t>(::syscall(SYS_gettid));
      Connection conn(server_->port());
      while (true) {
        ::setpriority(PRIO_PROCESS, tid, -5);
        const size_t i = next++;
        if (i >= ops.size()) return;
        const double picked = Now();
        if (ops[i].due <= end && picked > end) ++unsent_at_end;
        if (picked < ops[i].due) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(ops[i].due - picked));
        }
        RunOp(conn, ops[i], &results[i]);
        // The generator's own lateness: how late the send was after the
        // later of the due time and the moment a connection was free.
        results[i].lag_ms =
            (results[i].sent - std::max(ops[i].due, picked)) * 1e3;
      }
    });
  }
  for (std::thread& w : workers) w.join();
  appends_done_ += appends;
  *backlog = static_cast<double>(unsent_at_end.load());
  std::vector<double> lags;
  for (const OpResult& r : results) lags.push_back(r.lag_ms);
  *gen_lag_p99 = Quantile(lags, 0.99);
  for (size_t i = 0; i < ops.size(); ++i) {
    outcome_.Op(results[i].ok, ops[i].read >= 0 ? "read" : "append");
    if (ops[i].read < 0) remine_bodies_.push_back(results[i].remine_body);
  }
  // Every operation of the step, for diagnosis: due time (s from the
  // step's start), kind, latency, send-to-last-byte, server mine time.
  std::ofstream log(config_.dir + "/steps.tsv", std::ios::app);
  for (size_t i = 0; i < ops.size(); ++i) {
    log << rps << '\t' << ops[i].due - start << '\t' << ops[i].read << '\t'
        << results[i].latency_ms << '\t' << results[i].service_ms << '\t'
        << results[i].mine_ms << '\t' << results[i].remine_ms << '\n';
  }
  return results;
}

void Serve::CheckReads() {
  // Each distinct response body must equal the in-process result on the
  // same corpus; one body per read is expected.
  std::map<std::string, Result<Engine>> engines;
  std::vector<double> open_s;
  double serialize_s = 0;
  uint64_t bytes = 0;
  for (size_t i = 0; i < reads_.size(); ++i) {
    const Read& read = reads_[i];
    auto it = engines.find(read.corpus);
    if (it == engines.end()) {
      ScopedSpan span(tracer_, "trace.open", 0);
      const double start = Now();
      it = engines
               .emplace(read.corpus, Engine::FromBinaryFile(
                                         config_.dir + "/" + read.corpus +
                                         ".smdb"))
               .first;
      open_s.push_back(Now() - start);
    }
    TaskRun run;
    const bool ok =
        it->second.ok() && RunTask(*it->second, read.spec, tracer_,
                                   next_op_++, false, &run);
    serialize_s += run.json_s;
    bytes += run.json.size();
    const uint64_t expected = Digest(StripTimings(run.json));
    const bool match = ok && seen_[i].size() == 1 &&
                       *seen_[i].begin() == expected;
    outcome_.Op(match, "response of " + read.path + " " + read.body +
                           " differs from the in-process result");
  }
  outcome_.Set("trace.open_s", Median(open_s), "s");
  outcome_.Set("json.serialize_s", serialize_s, "s");
  outcome_.Set("json.mb", static_cast<double>(bytes) / 1e6, "MB");
}

void Serve::ReplayAppends() {
  // The server's corpus was copied before the server first touched it.
  const std::string replay = config_.dir + "/replay/mod.smdbset";
  std::vector<double> append_s, write_amp, remine_s;
  uint64_t scanned = 0, cached = 0, phase1_nodes = 0;
  const TaskSpec remine{Kind::kFull, kRemineMinSup, 0.5, kRemineThreads};
  TaskRun warm;
  for (size_t a = 0; a <= remine_bodies_.size(); ++a) {
    const uint64_t op = next_op_++;
    uint64_t trace_bytes = 0, shard_bytes = 0;
    if (a > 0) {
      std::vector<std::string> traces;
      std::ifstream in(config_.dir + "/append_" + std::to_string(a - 1) +
                       ".txt");
      std::string line;
      while (std::getline(in, line)) {
        trace_bytes += line.size() + 1;
        traces.push_back(line);
      }
      const uint64_t before = DirBytes(config_.dir + "/replay", {".smdb"});
      const double start = Now();
      specmine::Status status;
      {
        ScopedSpan span(tracer_, "trace.append", op);
        status = AppendTraces(replay, traces);
      }
      append_s.push_back(Now() - start);
      outcome_.Op(status.ok(), "replayed append: " + status.ToString());
      shard_bytes = DirBytes(config_.dir + "/replay", {".smdb"}) - before;
    }
    Result<Engine> session = Engine::FromShardSet(replay);
    TaskRun run;
    const bool ok =
        session.ok() && RunTask(*session, remine, tracer_, op, false, &run);
    if (a > 0) {
      // The server's re-mine after append a must be this one, report
      // counters included (the phase-1 cache went through the same
      // history).
      outcome_.Op(ok && StripTimings(run.json) ==
                            StripTimings(remine_bodies_[a - 1]),
                  "re-mine after append " + std::to_string(a) +
                      " differs from the replay");
      remine_s.push_back(run.mine_s);
      write_amp.push_back(
          static_cast<double>(shard_bytes + FileBytes(replay) +
                              FileBytes(specmine::Phase1CachePath(replay))) /
          static_cast<double>(trace_bytes));
      scanned += run.report.shards_scanned;
      cached += run.report.shards_cached;
      for (size_t n : run.report.shard_phase1_nodes) phase1_nodes += n;
    }
    warm = std::move(run);
  }
  Result<Engine> session = Engine::FromShardSet(replay);
  TaskSpec cold_spec = remine;
  cold_spec.phase1_cache = false;
  TaskRun cold;
  Tracer untraced(false);
  const bool ok = session.ok() && RunTask(*session, cold_spec, untraced,
                                          next_op_++, false, &cold);
  outcome_.Op(ok && ResultPart(warm.json) == ResultPart(cold.json),
              "warm re-mine equals cold re-mine");
  outcome_.Set("trace.append_s", Median(append_s), "s");
  outcome_.Set("trace.write_amp", Median(write_amp), "ratio");
  outcome_.Set("shard.remine_s", Median(remine_s), "s");
  outcome_.Set("shard.scanned", static_cast<double>(scanned), "count");
  outcome_.Set("shard.cached", static_cast<double>(cached), "count");
  outcome_.Set("shard.cache_hit",
               scanned + cached == 0
                   ? 0
                   : static_cast<double>(cached) /
                         static_cast<double>(scanned + cached),
               "ratio");
  outcome_.Set("shard.phase1_nodes", static_cast<double>(phase1_nodes),
               "count");
  outcome_.Set("p1c.mb",
               static_cast<double>(
                   FileBytes(specmine::Phase1CachePath(replay))) /
                   1e6,
               "MB");
}

void Serve::Run() {
  const std::string& dir = config_.dir;
  // Keep a pristine copy of the modular corpus for the append replay.
  fs::create_directories(dir + "/replay");
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("mod.", 0) == 0) {
      fs::copy_file(entry.path(), dir + "/replay/" + name,
                    fs::copy_options::overwrite_existing);
    }
  }

  // Set-up, from spawn until every corpus has served one request. Each
  // repeat starts from the same files (no phase-1 cache yet).
  const std::vector<std::pair<std::string, std::string>> first_requests = {
      {"/mine/patterns", reads_[0].body},
      {"/mine/rules", reads_[1].body},
      {"/mine/patterns", reads_[6].body},
      {"/mine/patterns", "{\"corpus\": \"mod\", \"min_sup\": " +
                             std::to_string(kRemineMinSup) +
                             ", \"full\": true, \"threads\": " +
                             std::to_string(kRemineThreads) + "}"}};
  std::vector<double> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    server_.reset();
    fs::remove(specmine::Phase1CachePath(Manifest()));
    const uint64_t op = next_op_++;
    const double start = Now();
    const int span = tracer_.Begin("server.setup", op);
    bool ok = StartServer();
    Connection conn(ok ? server_->port() : 0);
    for (const auto& [path, body] : first_requests) {
      Response response;
      ok = ok && ServeOnce(conn, path, body, &response, op);
      NoteIndexBuild(ParseReport(response.body));
    }
    tracer_.End(span);
    setup.push_back(Now() - start);
    outcome_.Op(ok, "server set-up");
    if (!ok) return;
  }
  const double setup_s = Median(setup);
  outcome_.Set("setup_s", setup_s, "s");
  std::fprintf(stderr, "set-up %.3f s (median of %d)\n", setup_s,
               kSetupRepeats);

  Connection observer(server_->port());
  Response metrics_before;
  observer.Do("GET", "/metrics", "", &metrics_before);

  // The reference cycles, with the appends, and the ladder.
  std::atomic<bool> sampling{config_.trace};
  std::atomic<double> queue_max{0};
  std::thread sampler([&] {
    Connection conn(server_->port());
    while (sampling) {
      Response r;
      if (conn.Do("GET", "/metrics", "", &r)) {
        const double depth = MetricSum(r.body, "specmined_mine_queue_depth ");
        if (depth > queue_max) queue_max = depth;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  // A ladder step that misses the limit or grows a backlog counts as a
  // miss. A step in which the generator fell behind its own schedule is
  // invalid (its latencies mean nothing) and runs once more; invalid twice,
  // it counts as a miss.
  const auto rate = [](int k) { return kLadderBase * std::pow(1.05, k); };
  const auto passes = [&](int k) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      double step_backlog = 0, step_lag = 0;
      const std::vector<OpResult> step =
          RunStep(rate(k), kStepSeconds, 0, &step_backlog, &step_lag);
      std::vector<double> lat;
      for (const OpResult& r : step) lat.push_back(r.latency_ms);
      const double p99 = Quantile(lat, 0.99);
      const bool valid = step_lag <= kMaxGeneratorLagMs;
      std::fprintf(stderr,
                   "ladder %.1f/s: p99 %.1f ms, backlog %.0f, generator lag "
                   "p99 %.2f ms%s\n",
                   rate(k), p99, step_backlog, step_lag,
                   valid ? "" : " (invalid)");
      if (valid) {
        return p99 <= kReadP99LimitMs && step_backlog <= kConnections;
      }
    }
    return false;
  };

  // Job: the catalog sequentially on one connection, kJobPasses times. As
  // in the batch workloads, a pass's time is the sum of each read's median.
  std::vector<std::vector<double>> read_s(reads_.size());
  std::vector<OpResult> catalog(reads_.size());
  Connection job_conn(server_->port());
  const auto catalog_pass = [&] {
    for (size_t i = 0; i < reads_.size(); ++i) {
      RunOp(job_conn, {Now(), static_cast<int>(i), ""}, &catalog[i]);
      outcome_.Op(catalog[i].ok, "catalog read");
      read_s[i].push_back(catalog[i].latency_ms / 1e3);
    }
  };

  // One job pass, one reference cycle, one ladder step, and so on: the
  // host's speed drifts by tens of percent within seconds, so each of them
  // samples the whole run instead of one stretch of it. A reference cycle
  // in which the generator fell behind its own schedule is invalid; its
  // reads run once more. Its appends count (their times run from send to
  // last byte), so every run appends the same kAppends modules.
  const double cycle_s = static_cast<double>(order_.size()) / kReferenceRps;
  const size_t cycles = std::max<size_t>(
      1, static_cast<size_t>(
             std::lround(kReferenceShare * config_.seconds / cycle_s)));
  const double ladder_budget = kLadderShare * config_.seconds;
  double ladder_s = 0, backlog = 0;
  int lo = -1, hi = kLadderStart;  // rate(lo) passed, rate(hi) not tried.
  bool climbing = true, reference_valid = true;
  std::vector<OpResult> reads;
  std::vector<double> lags, cycle_p99;
  for (size_t c = 0;; ++c) {
    const int rung = ladder_s >= ladder_budget ? -1
                     : climbing                ? hi
                     : hi - lo > 1             ? (lo + hi) / 2
                                               : -1;
    if (c >= kJobPasses && c >= cycles && rung < 0) break;
    if (c < kJobPasses) catalog_pass();
    if (c < cycles) {
      size_t appends = kAppends * (c + 1) / cycles - kAppends * c / cycles;
      for (int attempt = 0; attempt < 2; ++attempt) {
        double step_backlog = 0, step_lag = 0;
        const std::vector<OpResult> step = RunStep(
            kReferenceRps, cycle_s, appends, &step_backlog, &step_lag);
        appends = 0;
        std::vector<double> step_ms;
        for (const OpResult& r : step) {
          if (r.read >= 0) {
            step_ms.push_back(r.latency_ms);
          } else {
            append_ms_.push_back(r.latency_ms - r.remine_ms);
            remine_ms_.push_back(r.remine_ms);
          }
        }
        if (step_lag <= kMaxGeneratorLagMs) {
          cycle_p99.push_back(Quantile(step_ms, 0.99));
          for (const OpResult& r : step) {
            lags.push_back(r.lag_ms);
            if (r.read >= 0) reads.push_back(r);
          }
          backlog = std::max(backlog, step_backlog);
          break;
        }
        std::fprintf(stderr,
                     "reference cycle invalid: generator lag p99 %.2f ms\n",
                     step_lag);
        if (attempt == 1) reference_valid = false;
      }
    }
    if (rung >= 0) {
      const double start = Now();
      const bool pass = passes(rung);
      ladder_s += Now() - start;
      if (!climbing) {
        (pass ? lo : hi) = rung;
      } else if (pass) {
        lo = hi;
        hi += kCoarseStride;
      } else {
        climbing = false;
        lo = std::max(lo, 0);  // Even the first rung missed: bisect below.
      }
    }
  }
  outcome_.Op(reference_valid,
              "reference cycle: generator fell behind twice");
  double job_s = 0;
  std::fprintf(stderr, "catalog pass, median per read:");
  for (const std::vector<double>& samples : read_s) {
    job_s += Median(samples);
    std::fprintf(stderr, " %.1f", Median(samples) * 1e3);
  }
  std::fprintf(stderr, " ms; %.3f s\n", job_s);
  outcome_.Set("job_s", job_s, "s");
  outcome_.Set("max_rps", rate(std::max(lo, 0)), "1/s");

  // read_p50_ms is the mix-weighted geometric mean of each read's median
  // latency. The reads' latencies lie in separate bands (5 ms to 500 ms),
  // so a median pooled over all reads falls into a gap between two of them
  // and jumps between runs; each read's own median does not. read_p99_ms is
  // the median over the cycles of each cycle's p99, which one cycle that
  // met a slow second of the host does not move. Each re-mine scans every
  // shard (the fractional threshold changes with every append), so its time
  // grows with the corpus, from 5 to 15 ms: a median then rests on the one
  // or two middle appends. Every run appends the same modules in the same
  // order, so remine_ms is the mean over that fixed sequence.
  std::vector<std::vector<double>> read_ms(reads_.size());
  std::vector<double> overhead, mine;
  for (const OpResult& r : reads) {
    read_ms[static_cast<size_t>(r.read)].push_back(r.latency_ms);
    overhead.push_back(r.service_ms - r.mine_ms);
    mine.push_back(r.mine_ms);
  }
  double log_sum = 0, weights = 0;
  for (size_t i = 0; i < reads_.size(); ++i) {
    log_sum += reads_[i].weight * std::log(Median(read_ms[i]));
    weights += reads_[i].weight;
  }
  const double read_p50 = std::exp(log_sum / weights);
  const double lag_p99 = Quantile(lags, 0.99);
  outcome_.Set("read_p50_ms", read_p50, "ms");
  outcome_.Set("read_p99_ms", Median(cycle_p99), "ms");
  outcome_.Set("append_p50_ms", Median(append_ms_), "ms");
  const double remine_mean =
      std::accumulate(remine_ms_.begin(), remine_ms_.end(), 0.0) /
      static_cast<double>(remine_ms_.size());
  outcome_.Set("remine_ms", remine_mean, "ms");
  outcome_.Set("gen.lag_p99_ms", lag_p99, "ms");
  outcome_.Set("gen.backlog", backlog, "count");
  outcome_.Set("server.mine_ms", Quantile(mine, 0.5), "ms");
  outcome_.Set("server.overhead_p50_ms", Quantile(overhead, 0.5), "ms");
  outcome_.Set("server.overhead_p99_ms", Quantile(overhead, 0.99), "ms");
  std::fprintf(stderr,
               "reference %.0f/s: %zu cycles, %zu reads, p50 %.1f ms, "
               "p99 %.1f ms, re-mine %.2f ms, generator lag p99 %.2f ms, "
               "backlog %.0f\n",
               kReferenceRps, cycles, mine.size(), read_p50,
               Median(cycle_p99), remine_mean, lag_p99, backlog);
  sampling = false;
  sampler.join();

  Response metrics_after;
  observer.Do("GET", "/metrics", "", &metrics_after);
  const auto delta = [&](const std::string& prefix) {
    return MetricSum(metrics_after.body, prefix) -
           MetricSum(metrics_before.body, prefix);
  };
  const double handler_count =
      delta("specmined_request_duration_seconds_count{route=\"/mine/");
  outcome_.Set("server.handler_ms",
               handler_count == 0
                   ? 0
                   : 1e3 *
                         delta("specmined_request_duration_seconds_sum{"
                               "route=\"/mine/") /
                         handler_count,
               "ms");
  outcome_.Set("admission.rejected",
               delta("specmined_admission_rejected_total"), "count");
  outcome_.Set("admission.queue_max", queue_max, "count");
  outcome_.Set("index.builds", delta("specmined_index_cache_misses_total"),
               "count");
  outcome_.Set("peak_rss_mb", PeakRssMb(server_->pid()), "MB");
  outcome_.Op(server_->Stop() == 0, "server exits cleanly on SIGTERM");

  // Exact work counters of one catalog pass, and the server's mining time
  // per pass by miner.
  ReportFields work;
  uint64_t response_bytes = 0;
  double closed_s = 0, rules_s = 0;
  for (size_t i = 0; i < reads_.size(); ++i) {
    const ReportFields& r = catalog[i].report;
    work.nodes += r.nodes;
    work.patterns += r.patterns;
    work.pruned += r.pruned;
    work.rules += r.rules;
    work.premises += r.premises;
    work.candidates += r.candidates;
    response_bytes += catalog[i].bytes;
    if (reads_[i].spec.kind == Kind::kClosed) closed_s += r.mine_s;
    if (reads_[i].spec.kind == Kind::kNrRules) rules_s += r.mine_s;
  }
  const auto count = [&](const char* name, uint64_t value) {
    outcome_.Set(name, static_cast<double>(value), "count");
  };
  count("itermine.nodes", work.nodes);
  count("itermine.patterns", work.patterns);
  count("itermine.pruned", work.pruned);
  outcome_.Set("itermine.yield",
               static_cast<double>(work.patterns) /
                   static_cast<double>(work.nodes),
               "ratio");
  outcome_.Set("itermine.closed_s", closed_s, "s");
  count("rulemine.premises", work.premises);
  count("rulemine.candidates", work.candidates);
  count("rulemine.rules", work.rules);
  outcome_.Set("rulemine.yield",
               static_cast<double>(work.rules) /
                   static_cast<double>(work.candidates),
               "ratio");
  outcome_.Set("rulemine.rules_s", rules_s, "s");
  outcome_.Set("http.resp_mb", static_cast<double>(response_bytes) / 1e6,
               "MB");
  outcome_.Set("index.build_s", Median(index_build_s_), "s");

  CheckReads();
  ReplayAppends();
  if (config_.trace) tracer_.Write(dir + "/spans.jsonl");
}

}  // namespace

void RunServe(const RunConfig& config, Outcome& outcome) {
  Serve serve(config, outcome);
  serve.Run();
}

}  // namespace perfbench
