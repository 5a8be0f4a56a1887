// The vertical implementations of the projection queries: the same
// contracts as projection.h, computed word-wise over BitmapIndex rows
// instead of per-position scans over CSR position lists.
//
// These are the kBitmap arms of the CountingBackend dispatch in
// projection.cc / qre_verifier.cc / occurrence_engine.cc; callers outside
// tests and benchmarks should go through the dispatching overloads. Every
// function here is observationally identical to its CSR/scalar sibling —
// same entries, same supports, same emission order — which is what the
// backend-equivalence property suite pins down.
//
// Cold-path note: unlike the CSR engine, whose workspace carries several
// O(alphabet)-sized epoch tables, the bitmap engine's scratch is one
// word row (ceil(total events / 64) words) plus flat candidate buffers
// that scale with the result size. A cold call (fresh workspace) therefore
// allocates almost nothing — the rebuild of extension enumeration that
// closes the cold/warm gap the benchmark trajectory shows for CSR.

#ifndef SPECMINE_ITERMINE_BITMAP_PROJECTION_H_
#define SPECMINE_ITERMINE_BITMAP_PROJECTION_H_

#include <cstdint>
#include <vector>

#include "src/itermine/bitmap_index.h"
#include "src/itermine/projection.h"

namespace specmine {

class HybridIndex;

/// \brief Bitmap arm of SingleEventInstances: every occurrence of \p ev,
/// enumerated word-wise in (sequence, position) order.
InstanceList SingleEventInstancesBitmap(const BitmapIndex& index, EventId ev);

/// \brief Hybrid arm of SingleEventInstances. Dense events enumerate their
/// bitmap row like the bitmap arm; sparse events walk their sorted ID-list
/// directly — O(occurrences x log sequences) instead of the per-sequence
/// scan both pure formats pay, which is what makes low-support root
/// expansion cheap on huge-alphabet corpora.
InstanceList SingleEventInstancesHybrid(const HybridIndex& index, EventId ev);

/// \brief Bitmap arm of ForwardExtensions. Same output contract: \p out
/// holds the instances of every P++<e> with at least \p min_support of
/// them, ascending by event, each bucket in instance-scan order.
void ForwardExtensionsBitmap(const BitmapIndex& index, const Pattern& pattern,
                             const InstanceList& instances,
                             ProjectionWorkspace* ws, ForwardExtensionMap* out,
                             uint64_t min_support = 0);

/// \brief Bitmap arm of BackwardExtensions; the returned reference lives
/// in \p ws like the CSR arm's.
const BackwardExtensionMap& BackwardExtensionsBitmap(
    const BitmapIndex& index, const Pattern& pattern,
    const InstanceList& instances, ProjectionWorkspace* ws,
    uint64_t min_support = 0);

/// \brief Reusable scratch for the word-wise QRE recount (the alphabet
/// union row). Optional: callers in loops (the generator check, shard
/// recounts) keep one alive to stay allocation-free.
struct QreRecountScratch {
  std::vector<uint64_t> union_words;
  std::vector<EventId> alphabet;
};

/// \brief Bitmap arm of the QRE recount: CountInstances(pattern, db) by
/// first-set-bit chain walking instead of the per-position oracle scan.
uint64_t CountInstancesBitmap(const BitmapIndex& index, const Pattern& pattern,
                              QreRecountScratch* scratch = nullptr);

/// \brief Bitmap arm of CountOccurrences (plain-subsequence temporal
/// points): greedy prefix chain per sequence, then a popcount of the last
/// event's remaining occurrences.
size_t CountOccurrencesBitmap(const BitmapIndex& index,
                              const Pattern& pattern);

}  // namespace specmine

#endif  // SPECMINE_ITERMINE_BITMAP_PROJECTION_H_
