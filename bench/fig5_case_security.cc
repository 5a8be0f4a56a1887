// Figure 5 — case study on the (simulated) JBoss security component: mine
// non-redundant recurrent rules from authentication traces and print the
// top rule, which should be the JAAS rule of the paper's Figure 5
// (configuration-lookup premise -> login/commit/principal-binding/use
// consequent), plus its LTL form.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/ltl/translate.h"
#include "src/sim/test_suite.h"
#include "src/support/stopwatch.h"

namespace specmine {
namespace {

int Run() {
  std::printf(
      "=== Figure 5: recurrent rule, JBoss security component "
      "(simulated) ===\n");
  sim::TestSuiteOptions suite;
  suite.num_traces = bench::PaperScale() ? 500 : 100;
  suite.min_runs_per_trace = 1;
  suite.max_runs_per_trace = 3;
  suite.security.login_failure_probability = 0.05;
  suite.security.missing_entry_probability = 0.1;
  suite.security.direct_name_lookup_probability = 0.1;
  suite.security.noise_probability = 0.35;
  const Engine engine =
      bench::OrExit(Engine::Create(sim::GenerateSecurityTraces(suite)));
  const SequenceDatabase& db = engine.database();
  std::printf("traces: %zu, events: %zu, alphabet: %zu\n", db.size(),
              db.TotalEvents(), db.dictionary().size());

  RulesTask task;
  task.options.min_s_support = static_cast<uint64_t>(0.8 * db.size());
  task.options.min_confidence = 0.80;
  task.options.min_i_support = 1;
  task.options.non_redundant = true;
  Stopwatch sw;
  RunReport report;
  RuleSet rules = bench::OrExit(engine.CollectRules(task, &report));
  double elapsed = sw.ElapsedSeconds();
  rules.SortByQuality();
  std::printf("non-redundant rules: %zu (premises %zu, %0.3fs)\n",
              rules.size(), report.premises_enumerated, elapsed);
  if (rules.empty()) return 1;

  // Select the rule the paper reports: the one whose premise is the JAAS
  // configuration-lookup pair (several non-redundant rules share the same
  // maximal concatenation but differ in premise split and statistics);
  // fall back to the longest rule if the exact premise is absent.
  Pattern fig5_premise;
  for (const std::string& name : sim::Figure5Premise()) {
    fig5_premise = fig5_premise.Extend(db.dictionary().Lookup(name));
  }
  const Rule* best = &rules[0];
  for (const Rule& r : rules.rules()) {
    if (r.Concatenation().size() > best->Concatenation().size()) best = &r;
  }
  for (const Rule& r : rules.rules()) {
    if (r.premise == fig5_premise &&
        r.Concatenation().size() >= best->Concatenation().size()) {
      best = &r;
      break;
    }
  }
  std::printf("\n%-38s | %s\n", "Premise", "Consequent");
  bench::PrintRule(78);
  size_t n = std::max(best->premise.size(), best->consequent.size());
  for (size_t i = 0; i < n; ++i) {
    std::string pre =
        i < best->premise.size()
            ? db.dictionary().NameOrPlaceholder(best->premise[i])
            : "";
    std::string post =
        i < best->consequent.size()
            ? db.dictionary().NameOrPlaceholder(best->consequent[i])
            : "";
    std::printf("%-38s | %s\n", pre.c_str(), post.c_str());
  }
  std::printf("\nstats: s-sup=%llu, i-sup=%llu, conf=%.3f\n",
              static_cast<unsigned long long>(best->s_support),
              static_cast<unsigned long long>(best->i_support),
              best->confidence());
  std::printf("LTL: %s\n", RuleToLtl(*best, db.dictionary())->ToString().c_str());
  std::printf(
      "\npaper reference: Figure 5's JAAS authentication rule — premise\n"
      "XmlLoginCI.getConfEntry, AuthenInfo.getName; consequent login module\n"
      "invocation, principal binding, and principal/credential use.\n");
  return 0;
}

}  // namespace
}  // namespace specmine

int main() { return specmine::Run(); }
