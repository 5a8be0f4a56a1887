// specbench — the specmine benchmark harness.
//
//   specbench gen --workload W --seed N --dir D
//       writes the workload's inputs, generated from the seed, into D;
//   specbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                 [--server PATH]
//       runs the workload on them and prints, as its last stdout line,
//       {"correct", "attempted", "failed", "metrics"}: the end-to-end
//       metrics when untraced, the per-layer metrics when traced.
//
// perfbench/run.py builds this binary and calls both steps; see
// perfbench/README.md for the workloads and metrics.

#include "perfbench/bench.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <thread>

#include "src/itermine/simd_kernels.h"
#include "src/support/version.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kStart = Clock::now();

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

// One per-layer metric: its unit and the end-to-end metric (and workloads)
// it should move. The traced run prints exactly these.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* target;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"append_p50_ms", "ms", "end-to-end, unbounded (see kEndToEnd)"},
    {"trace.pack_s", "s", "setup_s (quest_*)"},
    {"trace.open_s", "s", "setup_s"},
    {"trace.append_s", "s", "append_p50_ms"},
    {"trace.write_amp", "ratio", "append_p50_ms"},
    {"trace.overhead_frac", "ratio", "job_s (quest_dense; traced/untraced-1)"},
    {"index.build_s", "s", "setup_s; read_p99_ms, remine_ms (serve_mix)"},
    {"index.table_mb", "MB", "peak_rss_mb (quest_sparse)"},
    {"index.builds", "count", "read_p99_ms (serve_mix)"},
    {"itermine.closed_s", "s", "job_s"},
    {"itermine.full_s", "s", "job_s"},
    {"itermine.nodes", "count", "job_s"},
    {"itermine.patterns", "count", "job_s"},
    {"itermine.pruned", "count", "job_s"},
    {"itermine.closure_gaps", "count", "exact; closed patterns the miner missed"},
    {"itermine.yield", "ratio", "job_s"},
    {"rulemine.rules_s", "s", "job_s (quest_dense)"},
    {"rulemine.premises", "count", "job_s (quest_dense)"},
    {"rulemine.candidates", "count", "job_s (quest_dense)"},
    {"rulemine.rules", "count", "job_s (quest_dense)"},
    {"rulemine.yield", "ratio", "job_s (quest_dense)"},
    {"engine.sink_s", "s", "job_s"},
    {"json.serialize_s", "s", "job_s (quest_*); read_p50_ms (serve_mix)"},
    {"json.mb", "MB", "job_s (quest_*); read_p50_ms (serve_mix)"},
    {"shard.remine_s", "s", "remine_ms"},
    {"shard.scanned", "count", "remine_ms"},
    {"shard.cached", "count", "remine_ms"},
    {"shard.cache_hit", "ratio", "remine_ms"},
    {"shard.phase1_nodes", "count", "remine_ms"},
    {"p1c.mb", "MB", "remine_ms"},
    {"server.mine_ms", "ms", "read_p50_ms (serve_mix)"},
    {"server.overhead_p50_ms", "ms", "read_p50_ms (serve_mix)"},
    {"server.overhead_p99_ms", "ms", "read_p99_ms (serve_mix)"},
    {"server.handler_ms", "ms", "read_p50_ms (serve_mix)"},
    {"admission.rejected", "count", "max_rps (serve_mix); attempted/failed"},
    {"admission.queue_max", "count", "read_p99_ms (serve_mix)"},
    {"http.resp_mb", "MB", "read_p50_ms (serve_mix)"},
    {"gen.lag_p99_ms", "ms", "max_rps (serve_mix)"},
    {"gen.backlog", "count", "max_rps (serve_mix)"},
};

// The end-to-end metrics every untraced run prints. append_p50_ms is
// measured on every workload but printed with the per-layer metrics: when
// heavy reads held the server's two admission slots on serve_mix, its
// median moved by more than 25% between identical runs, beyond any bound
// the benchmark can fix.
constexpr const char* kEndToEnd[] = {
    "setup_s",     "job_s",   "peak_rss_mb",   "read_p50_ms",
    "read_p99_ms", "max_rps", "remine_ms",
};

bool ParseArgs(int argc, char** argv, RunConfig* config) {
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config->workload = value;
    } else if (key == "--seed") {
      config->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      config->trace = value == "1";
    } else if (key == "--dir") {
      config->dir = value;
    } else if (key == "--server") {
      config->server_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  const bool known = config->workload == "quest_dense" ||
                     config->workload == "quest_sparse" ||
                     config->workload == "serve_mix";
  if (!known || config->dir.empty() || config->seconds <= 0) {
    std::fprintf(stderr, "bad workload, --dir or --seconds\n");
    return false;
  }
  return true;
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(Clock::now() - kStart).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

void Outcome::Op(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

void Outcome::Set(const std::string& name, double value,
                  const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = {value, unit};
}

std::string Outcome::ToJson(const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (std::find(names.begin(), names.end(), name) == names.end()) continue;
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + Number(metric.first) +
           ", \"unit\": " + JsonString(metric.second) + "}";
  }
  return out + "}}";
}

int Tracer::Begin(std::string_view name, uint64_t op, int parent) {
  if (!enabled_) return -1;
  const double now = Now();
  return Add(name, op, parent, now, now);
}

void Tracer::End(int id) {
  if (id < 0) return;
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
}

int Tracer::Add(std::string_view name, uint64_t op, int parent, double start,
                double end) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::string(name), op, parent, start, end});
  return static_cast<int>(spans_.size() - 1);
}

double Tracer::Total(std::string_view name) const {
  double total = 0;
  for (double d : Durations(name)) total += d;
  return total;
}

double Tracer::Self(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of each span, as (start, end) intervals.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  double total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0, reach = spans_[i].start;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, reach);
      const double hi = std::min(end, spans_[i].end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, end);
    }
    total += spans_[i].end - spans_[i].start - covered;
  }
  return total;
}

std::vector<double> Tracer::Durations(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"op\": " << s.op << ", \"parent\": " << s.parent
        << ", \"start\": " << Number(s.start) << ", \"end\": "
        << Number(s.end) << "}\n";
  }
  return static_cast<bool>(out);
}

std::string StripTimings(std::string_view json) {
  std::string out;
  out.reserve(json.size());
  size_t pos = 0;
  while (pos < json.size()) {
    size_t eol = json.find('\n', pos);
    if (eol == std::string_view::npos) eol = json.size();
    const std::string_view line = json.substr(pos, eol - pos);
    if (line.find("_seconds\":") == std::string_view::npos) {
      out.append(line);
      out += '\n';
    }
    pos = eol + 1;
  }
  return out;
}

std::string_view ResultPart(std::string_view json) {
  // The report object is the first member and holds no nested object, so
  // its closing brace is the first line that is exactly "  },".
  const size_t end = json.find("\n  },\n");
  return end == std::string_view::npos ? json : json.substr(end);
}

uint64_t Digest(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss(const std::string& pid) {
  std::ofstream("/proc/" + pid + "/clear_refs") << "5";
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

uint64_t DirBytes(const std::string& dir,
                  const std::vector<std::string>& suffixes) {
  uint64_t total = 0;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    for (const std::string& suffix : suffixes) {
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        total += FileBytes(dir + "/" + name);
        break;
      }
    }
  }
  ::closedir(d);
  return total;
}

void PrintStamp(const RunConfig& config) {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::printf(
      "{\"stamp\": {\"cpu\": %s, \"nproc\": %u, \"revision\": %s, "
      "\"version\": %s, \"build_type\": %s, \"simd\": %s, \"workload\": %s, "
      "\"seed\": %" PRIu64 ", \"seconds\": %s, \"trace\": %d}}\n",
      JsonString(cpu).c_str(), std::thread::hardware_concurrency(),
      JsonString(specmine::GitRevision()).c_str(),
      JsonString(specmine::VersionString()).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(specmine::SimdDispatchLevel()).c_str(),
      JsonString(config.workload).c_str(), config.seed,
      Number(config.seconds).c_str(), config.trace ? 1 : 0);
}

void PrintLayerMap(const Outcome& outcome) {
  std::fprintf(stderr, "%-24s %14s %-6s  moves\n", "per-layer metric", "value",
               "unit");
  for (const LayerMetric& m : kLayerMetrics) {
    std::fprintf(stderr, "%-24s %14.6g %-6s  %s\n", m.name,
                 outcome.Value(m.name), m.unit, m.target);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::string mode = argc > 1 ? argv[1] : "";
  RunConfig config;
  if ((mode != "gen" && mode != "run") || !ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: specbench gen|run --workload W --seed N --dir D "
                 "[--seconds S --trace 0|1 --server PATH]\n");
    return 2;
  }
  if (mode == "gen") return GenerateInputs(config);

  PrintStamp(config);
  Outcome outcome;
  if (config.workload == "serve_mix") {
    RunServe(config, outcome);
  } else {
    RunBatch(config, outcome);
  }
  // Every listed metric is printed: a layer this workload bypasses did no
  // work, which the traced run reports as 0. An end-to-end metric is never
  // 0, so a missing one is a bug in the workload.
  std::vector<std::string> names;
  if (config.trace) {
    for (const LayerMetric& m : kLayerMetrics) {
      if (!outcome.Has(m.name)) outcome.Set(m.name, 0, m.unit);
      names.push_back(m.name);
    }
    PrintLayerMap(outcome);
  } else {
    for (const char* name : kEndToEnd) {
      if (!outcome.Has(name)) {
        std::fprintf(stderr, "workload did not measure %s\n", name);
        return 1;
      }
      names.push_back(name);
    }
  }
  std::printf("%s\n", outcome.ToJson(names).c_str());
  return 0;
}
