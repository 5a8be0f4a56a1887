// The mining calls the workloads time: one task through the public Engine
// API and json_results, exactly as `specmine <task> --json` and specmined
// render it, plus the append step of the incremental path.

#ifndef SPECMINE_PERFBENCH_MINING_H_
#define SPECMINE_PERFBENCH_MINING_H_

#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/engine/engine.h"

namespace perfbench {

/// \brief What one task mines. Support thresholds below 1 are fractions of
/// the traces, converted with Engine::AbsoluteSupport as the server and
/// CLI do; thresholds of 1 or more are absolute trace counts.
struct TaskSpec {
  enum class Kind { kFull, kClosed, kRules, kNrRules, kPairs };
  Kind kind = Kind::kClosed;
  double min_sup = 0.5;   ///< min_sup, min_ssup, or min_sat (pairs).
  double min_conf = 0.5;  ///< Rules only.
  size_t threads = 1;
  /// kFull on a sharded session runs MineSharded (as the server does);
  /// this is its phase-1 cache switch.
  bool phase1_cache = true;
};

/// \brief The span name of a task's mining call ("itermine.closed", ...).
const char* MineSpanName(const TaskSpec& spec, bool sharded);

/// \brief One finished task.
struct TaskRun {
  specmine::RunReport report;
  std::string json;    ///< The result document.
  double mine_s = 0;   ///< The Mine / MineSharded call.
  double json_s = 0;   ///< Result ordering plus json_results rendering.
  specmine::PatternSet patterns;  ///< Kept when asked (pattern tasks).
};

/// \brief Runs \p spec on \p engine, recording spans under \p op when the
/// tracer is enabled. Returns false (with the error on stderr) if the
/// engine refused the task.
bool RunTask(const specmine::Engine& engine, const TaskSpec& spec,
             Tracer& tracer, uint64_t op, bool keep_patterns, TaskRun* run);

/// \brief Appends \p traces (space-separated event names) to the .smdbset
/// at \p manifest in one sealed, committed AppendSession.
specmine::Status AppendTraces(const std::string& manifest,
                              const std::vector<std::string>& traces);

/// \brief The closure oracle's findings for one threshold.
struct ClosureCheck {
  /// Closed patterns missing from the full set (or with another support),
  /// plus closed patterns absorbed by another closed pattern of equal
  /// support: output that cannot be right.
  size_t unsound = 0;
  /// Full patterns with no closed super-pattern of equal support: closed
  /// patterns the closed miner did not report.
  size_t gaps = 0;
};

/// \brief Checks the closed set \p closed against the full set \p full
/// mined at the same threshold.
ClosureCheck CheckClosure(const specmine::PatternSet& full,
                          const specmine::PatternSet& closed);

}  // namespace perfbench

#endif  // SPECMINE_PERFBENCH_MINING_H_
