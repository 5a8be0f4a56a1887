#include "perfbench/mining.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "src/engine/json_results.h"
#include "src/trace/append_session.h"

namespace perfbench {
namespace {

using specmine::Engine;
using specmine::Pattern;
using specmine::PatternSet;
using specmine::Result;
using specmine::RunReport;

// Collects like CollectingPatternSink; when traced, also sums the time
// spent inside Consume.
class TimedPatternSink : public specmine::PatternSink {
 public:
  explicit TimedPatternSink(bool timed) : timed_(timed) {}
  bool Consume(const Pattern& pattern, uint64_t support) override {
    if (!timed_) {
      set_.Add(pattern, support);
      return true;
    }
    const double start = Now();
    set_.Add(pattern, support);
    seconds_ += Now() - start;
    return true;
  }
  PatternSet& set() { return set_; }
  double seconds() const { return seconds_; }

 private:
  bool timed_;
  double seconds_ = 0;
  PatternSet set_;
};

class TimedRuleSink : public specmine::RuleSink {
 public:
  explicit TimedRuleSink(bool timed) : timed_(timed) {}
  bool Consume(const specmine::Rule& rule) override {
    if (!timed_) {
      set_.Add(rule);
      return true;
    }
    const double start = Now();
    set_.Add(rule);
    seconds_ += Now() - start;
    return true;
  }
  specmine::RuleSet& set() { return set_; }
  double seconds() const { return seconds_; }

 private:
  bool timed_;
  double seconds_ = 0;
  specmine::RuleSet set_;
};

struct EventsHash {
  size_t operator()(const std::vector<specmine::EventId>& events) const {
    size_t h = 1469598103934665603ull;
    for (specmine::EventId e : events) h = (h ^ e) * 1099511628211ull;
    return h;
  }
};

}  // namespace

const char* MineSpanName(const TaskSpec& spec, bool sharded) {
  switch (spec.kind) {
    case TaskSpec::Kind::kFull:
      return sharded ? "shard.remine" : "itermine.full";
    case TaskSpec::Kind::kClosed:
      return "itermine.closed";
    case TaskSpec::Kind::kRules:
    case TaskSpec::Kind::kNrRules:
      return "rulemine.rules";
    case TaskSpec::Kind::kPairs:
      return "twoevent.pairs";
  }
  return "mine";
}

bool RunTask(const Engine& engine, const TaskSpec& spec, Tracer& tracer,
             uint64_t op, bool keep_patterns, TaskRun* run) {
  using Kind = TaskSpec::Kind;
  const bool timed = tracer.enabled();
  const uint64_t min_support =
      spec.min_sup >= 1 ? static_cast<uint64_t>(spec.min_sup)
                        : engine.AbsoluteSupport(spec.min_sup);
  const specmine::EventDictionary& dict = engine.dictionary();
  const int root = tracer.Begin("engine.task", op);
  double start = Now();
  const int mine_span =
      tracer.Begin(MineSpanName(spec, engine.sharded()), op, root);
  Result<RunReport> report = specmine::Status::Internal("unset");
  TimedPatternSink patterns(timed);
  TimedRuleSink rules(timed);
  specmine::CollectingTwoEventSink pairs;
  switch (spec.kind) {
    case Kind::kFull: {
      specmine::FullPatternsTask task;
      task.options.min_support = min_support;
      task.options.num_threads = spec.threads;
      task.phase1_cache = spec.phase1_cache;
      report = engine.sharded() ? engine.MineSharded(task, patterns)
                                : engine.Mine(task, patterns);
      break;
    }
    case Kind::kClosed: {
      specmine::ClosedTask task;
      task.options.min_support = min_support;
      task.options.num_threads = spec.threads;
      report = engine.Mine(task, patterns);
      break;
    }
    case Kind::kRules:
    case Kind::kNrRules: {
      specmine::RulesTask task;
      task.options.min_s_support = min_support;
      task.options.min_confidence = spec.min_conf;
      task.options.min_i_support = 1;
      task.options.non_redundant = spec.kind == Kind::kNrRules;
      task.options.num_threads = spec.threads;
      report = engine.Mine(task, rules);
      break;
    }
    case Kind::kPairs: {
      specmine::TwoEventTask task;
      task.options.min_satisfaction = spec.min_sup;
      task.options.min_relevant_traces = 1;
      report = engine.Mine(task, pairs);
      break;
    }
  }
  const double mined = Now();
  run->mine_s = mined - start;
  // The sink's callbacks are summed into one child span per call: a span
  // per callback would cost more than the callbacks it measures.
  tracer.End(mine_span);
  tracer.Add("engine.sink", op, mine_span,
             mined - patterns.seconds() - rules.seconds(), mined);
  if (!report.ok()) {
    tracer.End(root);
    std::fprintf(stderr, "task refused: %s\n",
                 report.status().ToString().c_str());
    return false;
  }
  run->report = *report;

  {
    ScopedSpan span(tracer, "json.serialize", op, root);
    start = Now();
    switch (spec.kind) {
      case Kind::kFull:
      case Kind::kClosed:
        patterns.set().SortBySupport();
        run->json = specmine::PatternsResultToJson(run->report,
                                                   patterns.set(), dict);
        break;
      case Kind::kRules:
      case Kind::kNrRules:
        rules.set().SortByQuality();
        run->json =
            specmine::RulesResultToJson(run->report, rules.set(), dict);
        break;
      case Kind::kPairs:
        run->json =
            specmine::TwoEventResultToJson(run->report, pairs.rules(), dict);
        break;
    }
    run->json_s = Now() - start;
  }
  tracer.End(root);
  if (keep_patterns) run->patterns = std::move(patterns.set());
  return true;
}

specmine::Status AppendTraces(const std::string& manifest,
                              const std::vector<std::string>& traces) {
  Result<specmine::AppendSession> opened =
      specmine::AppendSession::Open(manifest);
  if (!opened.ok()) return opened.status();
  specmine::AppendSession session = opened.TakeValueOrDie();
  for (const std::string& line : traces) {
    specmine::Status added = session.AddTraceFromString(line);
    if (!added.ok()) return added;
  }
  specmine::Status sealed = session.Seal();
  return sealed.ok() ? session.Commit() : sealed;
}

ClosureCheck CheckClosure(const PatternSet& full, const PatternSet& closed) {
  using Events = std::vector<specmine::EventId>;
  std::unordered_map<Events, uint64_t, EventsHash> full_support;
  full_support.reserve(full.size());
  for (const specmine::MinedPattern& p : full.items()) {
    full_support.emplace(p.pattern.events(), p.support);
  }
  // Closed patterns bucketed by (support, event): a super-pattern of P with
  // P's support is in the bucket of (sup(P), P's first event).
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  for (size_t i = 0; i < closed.size(); ++i) {
    Events events = closed[i].pattern.events();
    std::sort(events.begin(), events.end());
    events.erase(std::unique(events.begin(), events.end()), events.end());
    for (specmine::EventId e : events) {
      buckets[(closed[i].support << 32) ^ e].push_back(i);
    }
  }
  // Whether a closed pattern other than closed[skip] contains \p p as a
  // subsequence with the same support.
  const auto covered = [&](const specmine::MinedPattern& p, size_t skip) {
    auto it = buckets.find((p.support << 32) ^ p.pattern.first());
    if (it == buckets.end()) return false;
    for (size_t i : it->second) {
      if (i != skip && p.pattern.IsSubsequenceOf(closed[i].pattern)) {
        return true;
      }
    }
    return false;
  };
  // Whether closed pattern \p q absorbs closed[i] = P: equal support, and
  // q restricted to P's alphabet is P itself (q only inserts other events),
  // so every instance of q contains one of P — the one-to-one instance
  // correspondence of Definition 4.2 that makes P not closed. (A longer
  // pattern that repeats P's own events, such as <a b c a b> over
  // <a b c b>, has different instances and may be closed beside it.)
  const auto absorbs = [&](const specmine::Pattern& q, size_t i) {
    Events alphabet = closed[i].pattern.events();
    std::sort(alphabet.begin(), alphabet.end());
    Events projected;
    for (specmine::EventId e : q.events()) {
      if (std::binary_search(alphabet.begin(), alphabet.end(), e)) {
        projected.push_back(e);
      }
    }
    return projected == closed[i].pattern.events();
  };
  ClosureCheck check;
  for (size_t i = 0; i < closed.size(); ++i) {
    auto it = full_support.find(closed[i].pattern.events());
    if (it == full_support.end() || it->second != closed[i].support) {
      ++check.unsound;
    }
    auto bucket =
        buckets.find((closed[i].support << 32) ^ closed[i].pattern.first());
    for (size_t j : bucket->second) {
      if (j != i && absorbs(closed[j].pattern, i)) {
        ++check.unsound;
        break;
      }
    }
  }
  for (const specmine::MinedPattern& p : full.items()) {
    if (!covered(p, closed.size())) ++check.gaps;
  }
  return check;
}

}  // namespace perfbench
