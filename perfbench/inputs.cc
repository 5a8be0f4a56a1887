// The benchmark inputs, generated from the workload seed. The program under
// test sees only these files.
//
// Each corpus has a fixed shape: its generator runs with a fixed seed, and
// the workload seed then reorders the traces and (for QUEST corpora)
// renames the events by a seeded permutation. Two seeds therefore give
// different bytes, event ids, trace order and shard contents, but the same
// mining work up to isomorphism, so runs with different seeds are
// comparable. (A QUEST corpus regenerated from another generator seed
// changes the full-pattern count severalfold.)
//
//   quest_dense   quest.txt    the CI-scale dense QUEST corpus of the figure
//                              benches (500 traces, 1000 events)
//   quest_sparse  quest.txt    the sparse QUEST corpus of the micro bench
//                              (2000 traces, ~20k events)
//   serve_mix     txn.smdb     Fig. 4 transaction-component traces
//                 sec.smdb     Fig. 5 security-component traces
//                 quest.smdb   the dense QUEST corpus
//                 mod.smdbset  a modular corpus, one shard per module
//                 append_N.txt the modules the run appends, one per file

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>

#include "perfbench/bench.h"
#include "perfbench/inputs.h"
#include "src/sim/test_suite.h"
#include "src/synth/quest_generator.h"
#include "src/trace/binary_format.h"
#include "src/trace/shard_set.h"
#include "src/trace/trace_io.h"

namespace perfbench {
namespace {

using specmine::QuestParams;
using specmine::SequenceDatabase;
using specmine::SequenceDatabaseBuilder;
using specmine::Status;

QuestParams DenseQuestParams() {
  QuestParams p;
  p.d_sequences_thousands = 0.5;
  p.c_avg_sequence_length = 25.0;
  p.n_events_thousands = 1.0;
  p.s_avg_pattern_length = 10.0;
  p.num_seed_patterns = 150;
  p.corruption_probability = 0.03;
  p.interleave_probability = 0.15;
  p.zipf_exponent = 0.5;
  return p;
}

QuestParams SparseQuestParams() {
  QuestParams p;
  p.d_sequences_thousands = 2.0;
  p.c_avg_sequence_length = 20;
  p.n_events_thousands = 20.0;
  p.s_avg_pattern_length = 4;
  p.num_seed_patterns = 40;
  return p;
}

specmine::sim::TestSuiteOptions TxnSuite() {
  specmine::sim::TestSuiteOptions suite;
  suite.num_traces = 100;
  suite.min_runs_per_trace = 1;
  suite.max_runs_per_trace = 2;
  suite.transaction.rollback_probability = 0.15;
  suite.transaction.noise_probability = 0.35;
  return suite;
}

specmine::sim::TestSuiteOptions SecuritySuite() {
  specmine::sim::TestSuiteOptions suite;
  suite.num_traces = 100;
  suite.min_runs_per_trace = 1;
  suite.max_runs_per_trace = 3;
  suite.security.login_failure_probability = 0.05;
  suite.security.missing_entry_probability = 0.1;
  suite.security.direct_name_lookup_probability = 0.1;
  suite.security.noise_probability = 0.35;
  return suite;
}

// \p db's traces in a seeded order, one space-separated line each. The
// order is shuffled within each quarter of the corpus only, so the quarters
// the batch workloads pack as shards hold the same traces for every seed.
// With \p rename, event i is written as <prefix>e<perm[i]> for a seeded
// permutation perm; otherwise as <prefix><name>.
std::vector<std::string> PermutedLines(const SequenceDatabase& db,
                                       uint64_t seed, bool rename,
                                       const std::string& prefix = "") {
  std::mt19937_64 rng(seed);
  std::vector<size_t> order(db.size());
  std::iota(order.begin(), order.end(), 0);
  const size_t quarter = std::max<size_t>(1, db.size() / 4);
  for (size_t begin = 0; begin < order.size(); begin += quarter) {
    const size_t end = std::min(order.size(), begin + quarter);
    std::shuffle(order.begin() + begin, order.begin() + end, rng);
  }
  std::vector<size_t> perm(db.dictionary().size());
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<std::string> lines;
  for (size_t s : order) {
    std::string line;
    for (specmine::EventId ev : db[static_cast<specmine::SeqId>(s)]) {
      if (!line.empty()) line += ' ';
      line.append(prefix);
      if (rename) {
        line.append("e").append(std::to_string(perm[ev]));
      } else {
        line.append(db.dictionary().Name(ev));
      }
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

SequenceDatabase FromLines(const std::vector<std::string>& lines) {
  SequenceDatabaseBuilder builder;
  for (const std::string& line : lines) builder.AddTraceFromString(line);
  return builder.Build();
}

}  // namespace

std::vector<std::string> ModuleTraces(uint64_t seed, size_t module) {
  QuestParams p = DenseQuestParams();
  p.d_sequences_thousands = kModuleTraces / 1000.0;
  p.seed += module;
  std::string prefix = "m";
  prefix.append(std::to_string(module)).append(".");
  return PermutedLines(specmine::GenerateQuest(p).TakeValueOrDie(),
                       seed + module, true, prefix);
}

namespace {

Status WriteLines(const std::vector<std::string>& lines,
                  const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  for (const std::string& line : lines) std::fprintf(f, "%s\n", line.c_str());
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IOError("cannot write " + path);
}

Status WriteModularSet(uint64_t seed, size_t modules,
                       const std::string& manifest) {
  specmine::ShardWriter writer(manifest);
  Status status = Status::OK();
  for (size_t m = 0; m < modules && status.ok(); ++m) {
    if (m > 0) status = writer.CutShard();
    for (const std::string& line : ModuleTraces(seed, m)) {
      if (status.ok()) status = writer.AddTraceFromString(line);
    }
  }
  return status.ok() ? writer.Finish() : status;
}

Status Generate(const RunConfig& config) {
  const std::string& dir = config.dir;
  const uint64_t seed = config.seed;
  if (config.workload != "serve_mix") {
    auto db = specmine::GenerateQuest(config.workload == "quest_dense"
                                          ? DenseQuestParams()
                                          : SparseQuestParams());
    if (!db.ok()) return db.status();
    return WriteLines(PermutedLines(*db, seed, true), dir + "/quest.txt");
  }
  Status status = specmine::WriteBinaryDatabaseFile(
      FromLines(PermutedLines(
          specmine::sim::GenerateTransactionTraces(TxnSuite()), seed, false)),
      dir + "/txn.smdb");
  if (status.ok()) {
    status = specmine::WriteBinaryDatabaseFile(
        FromLines(PermutedLines(
            specmine::sim::GenerateSecurityTraces(SecuritySuite()), seed,
            false)),
        dir + "/sec.smdb");
  }
  if (status.ok()) {
    auto quest = specmine::GenerateQuest(DenseQuestParams());
    if (!quest.ok()) return quest.status();
    status = specmine::WriteBinaryDatabaseFile(
        FromLines(PermutedLines(*quest, seed, true)), dir + "/quest.smdb");
  }
  if (status.ok()) {
    status = WriteModularSet(seed, kBaseModules,
                             dir + "/mod" + specmine::kSmdbSetExtension);
  }
  for (size_t i = 0; i < kAppendModules && status.ok(); ++i) {
    status = WriteLines(ModuleTraces(seed, kBaseModules + i),
                        dir + "/append_" + std::to_string(i) + ".txt");
  }
  return status;
}

}  // namespace

int GenerateInputs(const RunConfig& config) {
  const Status status = Generate(config);
  if (!status.ok()) {
    std::fprintf(stderr, "input generation failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
