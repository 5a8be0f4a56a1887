// Closed iterative pattern mining (the "Closed" series of Figure 1;
// algorithmic details in Lo, Khoo & Liu, KDD 2007).
//
// A frequent pattern P is reported iff it is closed (Definition 4.2): no
// super-sequence Q has equal support together with a one-to-one
// correspondence between instances. Closedness is decided by three checks
// (see projection.h and DESIGN.md §1.1 for the proofs and the documented
// caveat about exotic multi-event absorbers):
//
//   1. forward absorption  — some P++<e> has sup == sup(P);
//   2. backward absorption — some <e>++P has sup == sup(P);
//   3. infix absorption    — some out-of-alphabet event has a uniform
//      non-zero per-gap count profile across all instances.
//
// Search-space pruning (the source of the paper's Figure-1 runtime gap):
//
//   P1 (sound)    : some e IN alphabet(P) sits immediately before the start
//                   of every instance. Every descendant P' then admits the
//                   backward absorber <e>++P' (e is in every descendant's
//                   alphabet, so gaps already exclude it, and adjacency
//                   leaves no room for interference) — the subtree contains
//                   no closed pattern.
//   P2 (heuristic): the same with e OUTSIDE alphabet(P) (and e absent from
//                   all instance gaps). Sound for P itself; a descendant
//                   could in principle re-introduce e inside a *new* gap and
//                   become closed. Emitted patterns are always verified, so
//                   P2 can only cause closed patterns to be missed.
//   P3 (heuristic): the infix analogue (ClosedIterMinerOptions::
//                   infix_prune). It DOES miss closed patterns in practice:
//                   on the dense QUEST benchmark corpus at 4% and 3%
//                   support, 885 frequent patterns have no reported closed
//                   super-pattern of equal support (0 with infix_prune =
//                   false). The small randomized property-suite corpora do
//                   not expose the gap, so they prove no completeness.

#ifndef SPECMINE_ITERMINE_CLOSED_MINER_H_
#define SPECMINE_ITERMINE_CLOSED_MINER_H_

#include "src/itermine/full_miner.h"

namespace specmine {

/// \brief Options for the closed iterative pattern miner.
struct ClosedIterMinerOptions {
  /// Minimum number of instances (absolute).
  uint64_t min_support = 1;
  /// Physical counting representation (see IterMinerOptions::backend).
  BackendChoice backend = BackendChoice::kAuto;
  /// Maximum pattern length; 0 means unbounded.
  size_t max_length = 0;
  /// Enable the sound P1 subtree prune.
  bool prefix_prune = true;
  /// Enable the heuristic P2 subtree prune (see header comment).
  bool aggressive_prefix_prune = true;
  /// Enable the infix (uniform-gap-profile) closedness check. Disabling it
  /// makes the miner report a superset of the closed patterns (useful for
  /// ablation benchmarks).
  bool infix_check = true;
  /// P3 (heuristic): prune the whole subtree when a uniform-profile infix
  /// absorber exists. Suffix-extending by the absorber event itself is
  /// impossible (it would sit inside an old gap and break the instance
  /// chain), and any other suffix extension keeps the old-gap profile
  /// uniform, so the absorber survives unless the extension re-introduces
  /// the event *after* the pattern with non-uniform counts — the same
  /// caveat class as P2. This prune is what collapses the search space on
  /// deterministic protocol traces (the JBoss case study shape): every
  /// "skip one call of the protocol" subtree is entirely non-closed.
  bool infix_prune = true;
  /// Worker threads for first-level subtree parallelism; 0 = hardware
  /// concurrency, 1 = sequential. Output and stats are identical at every
  /// setting (per-worker results merge deterministically in root order).
  size_t num_threads = 0;
  /// Optional cooperative stop signal, polled at subtree granularity; a
  /// stopped run returns whatever was mined so far and reports the reason
  /// in IterMinerStats::stopped. Not owned; may be null.
  const CancelToken* cancel = nullptr;
};

/// \brief Mines the closed frequent iterative patterns of \p db.
///
/// Deprecated entry point: builds a fresh PositionIndex per call. New code
/// should go through specmine::Engine (src/engine/engine.h).
PatternSet MineClosedIterative(const SequenceDatabase& db,
                               const ClosedIterMinerOptions& options,
                               IterMinerStats* stats = nullptr);

/// \brief Index-reusing variant: mines over a prebuilt \p index (its
/// database). stats->index_build_seconds is left at 0; \p pool, when
/// non-null and matching the resolved thread count, runs the fan-out.
PatternSet MineClosedIterative(const PositionIndex& index,
                               const ClosedIterMinerOptions& options,
                               IterMinerStats* stats = nullptr,
                               ThreadPool* pool = nullptr);

/// \brief Backend-reusing variant: mines over either physical counting
/// representation (the PositionIndex overload wraps the CSR one).
PatternSet MineClosedIterative(const CountingBackend& backend,
                               const ClosedIterMinerOptions& options,
                               IterMinerStats* stats = nullptr,
                               ThreadPool* pool = nullptr);

}  // namespace specmine

#endif  // SPECMINE_ITERMINE_CLOSED_MINER_H_
