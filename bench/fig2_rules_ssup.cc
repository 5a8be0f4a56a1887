// Figure 2 — performance of recurrent rule mining while varying min_s-sup
// at min_conf = 50% and min_i-sup = 1: runtime (a) and number of mined
// rules (b), Full vs Non-Redundant.
//
// Expected shape (paper Section 6): NR mining dominates in both runtime
// and output size, with the gap widening as min_s-sup drops — the paper
// reports up to 147x (runtime) and 8500x (rule count).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/specmine/visualize.h"

namespace specmine {
namespace {

int Run() {
  using bench::TimedCount;
  std::printf(
      "=== Figure 2: recurrent rules, Full vs NR (min_conf=50%%, "
      "min_i-sup=1) ===\n");
  const Engine engine =
      bench::OrExit(Engine::Create(bench::MakeBenchDatabase()));

  // Paper sweep: 0.40% .. 0.60% of sequences.
  std::vector<double> fractions =
      bench::PaperScale()
          ? std::vector<double>{0.0060, 0.0055, 0.0050, 0.0045, 0.0040}
          : std::vector<double>{0.080, 0.070, 0.060, 0.050, 0.040};

  std::printf("%-12s %12s %12s %12s %12s %9s %9s\n", "min_s-sup", "full(s)",
              "NR(s)", "|Full|", "|NR|", "t-ratio", "n-ratio");
  bench::PrintRule(84);
  std::vector<std::string> chart_labels;
  ChartSeries full_time_series{"Full", {}}, nr_time_series{"NR", {}};
  ChartSeries full_count_series{"Full", {}}, nr_count_series{"NR", {}};
  for (double fraction : fractions) {
    uint64_t min_s_sup =
        static_cast<uint64_t>(fraction * engine.num_sequences());
    if (min_s_sup == 0) min_s_sup = 1;

    RulesTask full_task;
    full_task.options.min_s_support = min_s_sup;
    full_task.options.min_confidence = 0.5;
    full_task.options.min_i_support = 1;
    full_task.options.non_redundant = false;
    full_task.options.max_rules = 5'000'000;
    RunReport full_report;
    auto [full_time, full_count] = TimedCount([&] {
      return bench::OrExit(engine.CollectRules(full_task, &full_report))
          .size();
    });

    RulesTask nr_task = full_task;
    nr_task.options.non_redundant = true;
    nr_task.options.max_rules = 0;
    auto [nr_time, nr_count] = TimedCount(
        [&] { return bench::OrExit(engine.CollectRules(nr_task)).size(); });

    std::printf("%-11.3f%% %12.3f %12.3f %12zu %12zu %8.1fx %8.1fx%s\n",
                fraction * 100.0, full_time, nr_time, full_count, nr_count,
                nr_time > 0 ? full_time / nr_time : 0.0,
                nr_count > 0 ? static_cast<double>(full_count) /
                                   static_cast<double>(nr_count)
                             : 0.0,
                full_report.truncated ? "  [full truncated]" : "");
    char chart_label[16];
    std::snprintf(chart_label, sizeof(chart_label), "%.2f%%", fraction * 100.0);
    chart_labels.push_back(chart_label);
    full_time_series.values.push_back(full_time);
    nr_time_series.values.push_back(nr_time);
    full_count_series.values.push_back(static_cast<double>(full_count));
    nr_count_series.values.push_back(static_cast<double>(nr_count));
  }
  std::printf("\n%s", RenderLogChart("Figure 2(a): runtime (s)", chart_labels,
                                       {full_time_series, nr_time_series})
                           .c_str());
  std::printf("\n%s", RenderLogChart("Figure 2(b): |rules|", chart_labels,
                                       {full_count_series, nr_count_series})
                           .c_str());
  std::printf(
      "\npaper reference: NR mining up to 147x faster, up to 8500x fewer\n"
      "rules than the full set, gap widening at low supports.\n");
  return 0;
}

}  // namespace
}  // namespace specmine

int main() { return specmine::Run(); }
