// Shared pieces of the specmine benchmark harness: the workload context,
// sample statistics, the result line, the in-memory span tracer, and the
// output comparison helpers every workload uses.

#ifndef SPECMINE_PERFBENCH_BENCH_H_
#define SPECMINE_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// \brief Seconds on the steady clock since specbench started.
double Now();

/// \brief Everything a workload receives from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;          ///< Directory holding the generated inputs.
  std::string server_path;  ///< The specmined binary (serve_mix only).
};

/// \brief The value at quantile \p q (0..1) of \p values, linearly
/// interpolated between order statistics; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// \brief The result of one run: the operation tally and the named metrics,
/// printed as the last stdout line.
class Outcome {
 public:
  /// \brief Records one operation; a false \p ok counts it as failed and
  /// logs \p what on stderr.
  void Op(bool ok, const std::string& what = "");
  /// \brief Records a metric (a later value under the same name wins).
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  double Value(const std::string& name) const {
    auto it = metrics_.find(name);
    return it == metrics_.end() ? 0 : it->second.first;
  }
  /// \brief The result line (correct, attempted, failed, metrics) holding
  /// the metrics named in \p names.
  std::string ToJson(const std::vector<std::string>& names) const;

 private:
  std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// \brief One traced interval. Spans of one operation share \p op; a
/// span's parent is an index into the same tracer (-1 for a root).
struct Span {
  std::string name;
  uint64_t op = 0;
  int parent = -1;
  double start = 0;
  double end = 0;
};

/// \brief Keeps spans in memory (thread-safe) and writes them out at the
/// end of the run. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// \brief Opens a span; returns its id (-1 when disabled).
  int Begin(std::string_view name, uint64_t op, int parent = -1);
  void End(int id);
  /// \brief Records a finished span with explicit times.
  int Add(std::string_view name, uint64_t op, int parent, double start,
          double end);
  /// \brief Sum of the durations of every span named \p name.
  double Total(std::string_view name) const;
  /// \brief Sum of the self times of every span named \p name: each
  /// span's duration minus the part of it its child spans cover.
  double Self(std::string_view name) const;
  /// \brief Durations of every span named \p name, in record order.
  std::vector<double> Durations(std::string_view name) const;
  /// \brief Writes every span as one JSON object per line.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// \brief RAII span over a scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, uint64_t op,
             int parent = -1)
      : tracer_(tracer), id_(tracer.Begin(name, op, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// \brief \p json with every line carrying a "*_seconds" field removed: the
/// timing fields are the only bytes of a result document that differ
/// between equal runs (src/engine/json_results.h).
std::string StripTimings(std::string_view json);

/// \brief The result part of a result document: everything after the
/// "report" object (the patterns / rules / pairs array).
std::string_view ResultPart(std::string_view json);

/// \brief 64-bit FNV-1a digest.
uint64_t Digest(std::string_view bytes);

/// \brief Peak resident set (VmHWM) of process \p pid ("self" for this
/// one), in MB; 0 if unreadable.
double PeakRssMb(const std::string& pid = "self");

/// \brief Resets the peak resident set of process \p pid to its current
/// resident set (Linux clear_refs).
void ResetPeakRss(const std::string& pid = "self");

/// \brief Size of the file at \p path in bytes (0 if missing).
uint64_t FileBytes(const std::string& path);

/// \brief Total bytes of the regular files in \p dir whose names end in
/// one of \p suffixes.
uint64_t DirBytes(const std::string& dir,
                  const std::vector<std::string>& suffixes);

/// \brief Prints the stamp line: CPU model, core count, program revision,
/// build type, SIMD level, workload and seed.
void PrintStamp(const RunConfig& config);

/// \brief Prints "name value unit  -> target" rows for the traced run, so
/// every per-layer figure is shown with the end-to-end metric it moves.
void PrintLayerMap(const Outcome& outcome);

// Workloads (batch.cc, serve.cc) and their input generators (inputs.cc).
int GenerateInputs(const RunConfig& config);
void RunBatch(const RunConfig& config, Outcome& outcome);
void RunServe(const RunConfig& config, Outcome& outcome);

}  // namespace perfbench

#endif  // SPECMINE_PERFBENCH_BENCH_H_
