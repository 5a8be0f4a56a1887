// The batch workloads, quest_dense and quest_sparse: the paper's Fig. 1-3
// sweeps through one Engine session on a packed QUEST corpus, then the
// incremental path (append plus warm sharded re-mine) on the same traces.
// Everything runs in this process at num_threads = 1, so the figures are
// mining work, not scheduling.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "perfbench/bench.h"
#include "perfbench/mining.h"
#include "src/engine/phase1_cache.h"
#include "src/trace/shard_set.h"
#include "src/trace/trace_io.h"

namespace perfbench {
namespace {

using Kind = TaskSpec::Kind;
using specmine::Engine;
using specmine::Result;

constexpr int kSetupRepeats = 25;
// Passes measured after the first (checked, untimed) one; the time budget
// may add more.
constexpr int kMinPasses = 3;
// An incremental phase packs half the traces as a two-shard base and
// appends the other half in this many sealed chunks of a quarter each.
// (Smaller shards make the sharded miner's per-shard thresholds, and so its
// phase-1 scans, explode.)
constexpr size_t kAppendsPerPhase = 2;

// The task list of one pass: the Fig. 1 closed sweep over its five
// thresholds with the full set at the two highest (below them one full
// mine emits tens of MB of JSON and a pass would outgrow the run), and the
// Fig. 2 full-vs-NR rule pair at its highest s-sup point (min_conf 50%).
// A full task directly followed by a closed one at the same threshold is a
// closure-oracle pair.
//
// The incremental phase re-mines the full set at the absolute threshold
// remine_min_sup (10% of the final trace count; the sharded miner's
// phase-1 scans grow steeply below it). It is absolute because the phase-1
// cache is keyed by the absolute threshold, which a fraction would move on
// every append.
struct BatchPlan {
  std::vector<TaskSpec> pass;
  double remine_min_sup;
};

BatchPlan PlanFor(const std::string& workload) {
  if (workload == "quest_dense") {
    return {{{Kind::kFull, 0.04},    {Kind::kClosed, 0.04},
             {Kind::kFull, 0.03},    {Kind::kClosed, 0.03},
             {Kind::kClosed, 0.02},  {Kind::kClosed, 0.014},
             {Kind::kClosed, 0.01},  {Kind::kRules, 0.08},
             {Kind::kNrRules, 0.08}},
            50};
  }
  // Sparse: at an absolute min_sup of 4 one closed mine emits 44 MB of
  // JSON, so the sweep stops at 2% (40 of 2000 traces); rules cost ten
  // times more here and run at 10%.
  return {{{Kind::kFull, 0.05},  {Kind::kClosed, 0.05},
           {Kind::kFull, 0.03},  {Kind::kClosed, 0.03},
           {Kind::kFull, 0.02},  {Kind::kClosed, 0.02},
           {Kind::kRules, 0.1},  {Kind::kNrRules, 0.1}},
          200};
}

// The exact work counters of one pass, which must repeat pass to pass.
struct Work {
  uint64_t nodes = 0, patterns = 0, pruned = 0;
  uint64_t premises = 0, candidates = 0, rules = 0;
  uint64_t json_bytes = 0;
  bool operator==(const Work&) const = default;
};

struct Pass {
  std::vector<double> task_s;  // Mine plus render, per task.
  Work work;
  std::vector<uint64_t> digests;
};

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Packs \p lines into a .smdbset at \p manifest, one shard per \p per_shard
// traces.
bool PackShards(const std::vector<std::string>& lines, size_t per_shard,
                const std::string& manifest) {
  specmine::ShardWriter writer(manifest);
  specmine::Status status = specmine::Status::OK();
  for (size_t i = 0; i < lines.size() && status.ok(); ++i) {
    if (i > 0 && i % per_shard == 0) status = writer.CutShard();
    if (status.ok()) status = writer.AddTraceFromString(lines[i]);
  }
  if (status.ok()) status = writer.Finish();
  return status.ok();
}

Pass RunPass(const Engine& engine, const std::vector<TaskSpec>& tasks,
             Tracer& tracer, uint64_t* next_op, Outcome& outcome,
             std::vector<TaskRun>* keep) {
  Pass pass;
  for (const TaskSpec& spec : tasks) {
    TaskRun run;
    const bool ok =
        RunTask(engine, spec, tracer, (*next_op)++, keep != nullptr, &run);
    outcome.Op(ok, "batch task");
    pass.task_s.push_back(run.mine_s + run.json_s);
    const specmine::RunReport& r = run.report;
    pass.work.nodes += r.nodes_visited;
    pass.work.patterns += r.patterns_emitted;
    pass.work.pruned += r.subtrees_pruned;
    pass.work.premises += r.premises_enumerated;
    pass.work.candidates += r.candidate_rules;
    pass.work.rules += r.rules_emitted;
    const std::string stripped = StripTimings(run.json);
    pass.work.json_bytes += stripped.size();
    pass.digests.push_back(Digest(stripped));
    if (keep != nullptr) {
      std::fprintf(stderr, "task %s %.4g: %.3f s, %zu bytes, nodes %zu\n",
                   MineSpanName(spec, false), spec.min_sup,
                   pass.task_s.back(), run.json.size(), r.nodes_visited);
      run.json.clear();
      keep->push_back(std::move(run));
    }
  }
  return pass;
}

}  // namespace

void RunBatch(const RunConfig& config, Outcome& outcome) {
  namespace fs = std::filesystem;
  Tracer tracer(config.trace);
  uint64_t next_op = 1;
  const std::string text = config.dir + "/quest.txt";
  const std::string smdb = config.dir + "/quest.smdb";

  // Set-up: pack the text traces, open the .smdb, build the index.
  std::vector<double> setup, pack, open, build;
  Result<Engine> engine = specmine::Status::Internal("not opened");
  for (int r = 0; r < kSetupRepeats; ++r) {
    const uint64_t op = next_op++;
    const double t0 = Now();
    {
      ScopedSpan span(tracer, "trace.pack", op);
      auto db = specmine::ReadTextTraceFile(text);
      outcome.Op(db.ok() && specmine::WriteBinaryDatabaseFile(*db, smdb).ok(),
                 "pack " + text);
    }
    const double t1 = Now();
    {
      ScopedSpan span(tracer, "trace.open", op);
      engine = Engine::FromBinaryFile(smdb);
    }
    outcome.Op(engine.ok(), "open " + smdb);
    if (!engine.ok()) return;
    const double t2 = Now();
    {
      ScopedSpan span(tracer, "index.build", op);
      engine->backend();
    }
    const double t3 = Now();
    setup.push_back(t3 - t0);
    pack.push_back(t1 - t0);
    open.push_back(t2 - t1);
    build.push_back(t3 - t2);
  }
  const specmine::CountingBackend backend = engine->backend();
  double table_bytes = 0;
  if (backend.kind() == specmine::BackendKind::kBitmap) {
    table_bytes = static_cast<double>(backend.bitmap().table_bytes());
  } else if (backend.kind() == specmine::BackendKind::kHybrid) {
    table_bytes = static_cast<double>(backend.hybrid().table_bytes());
  }
  std::fprintf(stderr, "corpus: %zu traces, %zu events, backend %s\n",
               engine->num_sequences(), engine->total_events(),
               backend.name());

  // The first pass is checked and not timed: the closure oracle on every
  // Fig. 1 threshold, and digests every later pass must reproduce.
  const BatchPlan plan = PlanFor(config.workload);
  const std::vector<TaskSpec>& tasks = plan.pass;
  std::vector<TaskRun> first_runs;
  Tracer untraced(false);
  const Pass first =
      RunPass(*engine, tasks, untraced, &next_op, outcome, &first_runs);
  // Completeness gaps are reported as a count, not as failed operations:
  // the closed miner's heuristic infix prune (P3, on by default) drops
  // closed patterns at these thresholds (see README.md).
  uint64_t closure_gaps = 0;
  for (size_t i = 0; i + 1 < tasks.size(); ++i) {
    if (tasks[i].kind == Kind::kFull && tasks[i + 1].kind == Kind::kClosed &&
        tasks[i].min_sup == tasks[i + 1].min_sup) {
      const ClosureCheck check =
          CheckClosure(first_runs[i].patterns, first_runs[i + 1].patterns);
      outcome.Op(check.unsound == 0,
                 "closure oracle at min_sup " +
                     std::to_string(tasks[i].min_sup) + ": " +
                     std::to_string(check.unsound) + " unsound patterns");
      closure_gaps += check.gaps;
      std::fprintf(stderr, "closure oracle at %.4g: %zu unsound, %zu gaps\n",
                   tasks[i].min_sup, check.unsound, check.gaps);
    }
  }
  first_runs.clear();
  // Peak memory is taken over the timed work below, not over this check,
  // which holds both pattern sets of every oracle pair.
  ResetPeakRss();

  // The incremental path on the same traces: half packed as a sharded
  // base, the rest appended in sealed chunks, each followed by a warm
  // sharded re-mine. One phase runs that sequence once.
  const std::vector<std::string> lines = ReadLines(text);
  const size_t half = lines.size() / 2;
  const size_t chunk = (lines.size() - half) / kAppendsPerPhase;
  const std::string shard_dir = config.dir + "/shards";
  const std::string manifest = shard_dir + "/quest.smdbset";
  const TaskSpec remine{Kind::kFull, plan.remine_min_sup};
  std::vector<double> appends, write_amp;
  // Re-mine times by append position: the re-mines after the first and the
  // second append of a phase cost different amounts.
  std::vector<std::vector<double>> remines(kAppendsPerPhase);
  uint64_t scanned = 0, cached = 0, phase1_nodes = 0;
  int phases = 0;
  const auto run_phase = [&] {
    fs::remove_all(shard_dir);
    fs::create_directories(shard_dir);
    outcome.Op(PackShards({lines.begin(), lines.begin() + half}, half / 2,
                          manifest),
               "pack sharded base");
    TaskRun warm;
    uint64_t trace_bytes = 0, shard_bytes = 0;
    for (size_t a = 0; a <= kAppendsPerPhase; ++a) {
      const uint64_t op = next_op++;
      if (a > 0) {
        const std::vector<std::string> traces(
            lines.begin() + half + (a - 1) * chunk,
            lines.begin() + half + a * chunk);
        for (const std::string& t : traces) trace_bytes += t.size() + 1;
        const uint64_t before = DirBytes(shard_dir, {".smdb"});
        const double start = Now();
        specmine::Status appended;
        {
          ScopedSpan span(tracer, "trace.append", op);
          appended = AppendTraces(manifest, traces);
        }
        appends.push_back((Now() - start) * 1e3);
        outcome.Op(appended.ok(), "append: " + appended.ToString());
        shard_bytes = DirBytes(shard_dir, {".smdb"}) - before;
      }
      const double start = Now();
      Result<Engine> session = [&] {
        ScopedSpan span(tracer, "trace.open", op);
        return Engine::FromShardSet(manifest);
      }();
      TaskRun run;
      const bool ok = session.ok() &&
                      RunTask(*session, remine, tracer, op, false, &run);
      outcome.Op(ok, "sharded re-mine");
      if (a > 0) {
        remines[a - 1].push_back((Now() - start) * 1e3);
        // Bytes the append wrote (new shard, rewritten manifest, rewritten
        // phase-1 cache) per byte of appended trace text.
        write_amp.push_back(
            static_cast<double>(shard_bytes + FileBytes(manifest) +
                                FileBytes(specmine::Phase1CachePath(manifest))) /
            static_cast<double>(trace_bytes));
        // Counted in the first phase only, so the counts repeat exactly.
        if (phases == 0) {
          scanned += run.report.shards_scanned;
          cached += run.report.shards_cached;
          for (size_t n : run.report.shard_phase1_nodes) phase1_nodes += n;
        }
      }
      warm = std::move(run);
    }
    // After the last append a warm re-mine must equal a cold one.
    Result<Engine> session = Engine::FromShardSet(manifest);
    TaskSpec cold_spec = remine;
    cold_spec.phase1_cache = false;
    TaskRun cold;
    const bool ok = session.ok() &&
                    RunTask(*session, cold_spec, untraced, next_op++, false,
                            &cold);
    outcome.Op(ok && ResultPart(warm.json) == ResultPart(cold.json),
               "warm re-mine equals cold re-mine");
    ++phases;
  };

  // Timed passes, each followed by incremental phases for about 3/7 of
  // the pass's time, so that both sample the whole run: the host's speed
  // drifts by tens of percent within seconds. For the same reason a pass's
  // time is the sum over tasks of each task's median, not a whole-pass
  // sample. The traced run alternates traced and untraced passes, which
  // gives the tracing overhead.
  const double t_start = Now();
  std::vector<std::vector<double>> plain(tasks.size()), traced_s(tasks.size());
  std::vector<double> latencies;
  int passes = 0;
  while (passes < kMinPasses || Now() - t_start < config.seconds) {
    const bool traced = config.trace && passes % 2 == 1;
    const double pass_start = Now();
    Pass pass = RunPass(*engine, tasks, traced ? tracer : untraced, &next_op,
                        outcome, nullptr);
    outcome.Op(pass.work == first.work && pass.digests == first.digests,
               "pass repeats the first pass's work counters and output");
    for (size_t t = 0; t < tasks.size(); ++t) {
      (traced ? traced_s : plain)[t].push_back(pass.task_s[t]);
      if (!traced) latencies.push_back(pass.task_s[t] * 1e3);
    }
    ++passes;
    const double phases_until = Now() + 0.43 * (Now() - pass_start);
    do {
      run_phase();
    } while (Now() < phases_until);
  }
  const auto pass_time = [](const std::vector<std::vector<double>>& per_task) {
    double total = 0;
    for (const std::vector<double>& samples : per_task) total += Median(samples);
    return total;
  };
  const double job_s = pass_time(plain);
  // Latency and re-mine medians are taken per task and per append position
  // and then combined: a median pooled over tasks of different cost falls
  // between two of them and follows the extremes of both.
  double log_sum = 0;
  for (const std::vector<double>& samples : plain) {
    log_sum += std::log(Median(samples) * 1e3);
  }
  const double read_p50 = std::exp(log_sum / static_cast<double>(tasks.size()));
  double remine_ms = 0;
  for (const std::vector<double>& samples : remines) {
    remine_ms += Median(samples) / static_cast<double>(remines.size());
  }
  const double p1c_mb =
      static_cast<double>(FileBytes(specmine::Phase1CachePath(manifest))) /
      1e6;
  fs::remove_all(shard_dir);

  const double rss = PeakRssMb();
  outcome.Set("setup_s", Median(setup), "s");
  outcome.Set("job_s", job_s, "s");
  outcome.Set("peak_rss_mb", rss, "MB");
  outcome.Set("read_p50_ms", read_p50, "ms");
  outcome.Set("read_p99_ms", Quantile(latencies, 0.99), "ms");
  outcome.Set("max_rps", static_cast<double>(tasks.size()) / job_s, "1/s");
  outcome.Set("append_p50_ms", Median(appends), "ms");
  outcome.Set("remine_ms", remine_ms, "ms");
  std::fprintf(stderr,
               "passes %d (%zu tasks each), job_s samples %zu, latency "
               "samples %zu, appends %zu\n",
               passes, tasks.size(), plain.front().size(), latencies.size(),
               appends.size());
  if (!config.trace) return;

  // Per-layer figures, per traced pass (or per operation where noted).
  const double n = static_cast<double>(traced_s.front().size());
  outcome.Set("trace.pack_s", Median(pack), "s");
  outcome.Set("trace.open_s", Median(open), "s");
  outcome.Set("trace.append_s", Median(appends) / 1e3, "s");
  outcome.Set("trace.write_amp", Median(write_amp), "ratio");
  outcome.Set("trace.overhead_frac", pass_time(traced_s) / job_s - 1,
              "ratio");
  outcome.Set("index.build_s", Median(build), "s");
  outcome.Set("index.table_mb", table_bytes / 1e6, "MB");
  outcome.Set("index.builds", static_cast<double>(engine->index_builds()),
              "count");
  outcome.Set("itermine.closed_s", tracer.Self("itermine.closed") / n, "s");
  outcome.Set("itermine.full_s", tracer.Self("itermine.full") / n, "s");
  outcome.Set("itermine.nodes", static_cast<double>(first.work.nodes),
              "count");
  outcome.Set("itermine.patterns", static_cast<double>(first.work.patterns),
              "count");
  outcome.Set("itermine.pruned", static_cast<double>(first.work.pruned),
              "count");
  outcome.Set("itermine.closure_gaps", static_cast<double>(closure_gaps),
              "count");
  outcome.Set("itermine.yield",
              static_cast<double>(first.work.patterns) /
                  static_cast<double>(first.work.nodes),
              "ratio");
  outcome.Set("rulemine.rules_s", tracer.Self("rulemine.rules") / n, "s");
  outcome.Set("rulemine.premises", static_cast<double>(first.work.premises),
              "count");
  outcome.Set("rulemine.candidates",
              static_cast<double>(first.work.candidates), "count");
  outcome.Set("rulemine.rules", static_cast<double>(first.work.rules),
              "count");
  outcome.Set("rulemine.yield",
              static_cast<double>(first.work.rules) /
                  static_cast<double>(first.work.candidates),
              "ratio");
  outcome.Set("engine.sink_s", tracer.Total("engine.sink") / n, "s");
  outcome.Set("json.serialize_s", tracer.Total("json.serialize") / n, "s");
  outcome.Set("json.mb", static_cast<double>(first.work.json_bytes) / 1e6,
              "MB");
  outcome.Set("shard.remine_s", Median(tracer.Durations("shard.remine")),
              "s");
  outcome.Set("shard.scanned", static_cast<double>(scanned), "count");
  outcome.Set("shard.cached", static_cast<double>(cached), "count");
  outcome.Set("shard.cache_hit",
              static_cast<double>(cached) /
                  static_cast<double>(scanned + cached),
              "ratio");
  outcome.Set("shard.phase1_nodes", static_cast<double>(phase1_nodes),
              "count");
  outcome.Set("p1c.mb", p1c_mb, "MB");
  tracer.Write(config.dir + "/spans.jsonl");
}

}  // namespace perfbench
