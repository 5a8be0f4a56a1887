// The bitmap (dense-row) instantiations of the vertical projection
// template. The bodies — shared with the hybrid sparse/dense format —
// live in vertical_projection_impl.h and bottom out in the BitmapIndex
// word primitives.

#include "src/itermine/bitmap_projection.h"

#include <algorithm>

#include "src/itermine/hybrid_index.h"
#include "src/itermine/vertical_projection_impl.h"

namespace specmine {

InstanceList SingleEventInstancesBitmap(const BitmapIndex& index,
                                        EventId ev) {
  return internal::SingleEventInstancesVertical(index, ev);
}

InstanceList SingleEventInstancesHybrid(const HybridIndex& index, EventId ev) {
  if (ev >= index.num_events() || index.is_dense(ev)) {
    return internal::SingleEventInstancesVertical(index, ev);
  }
  InstanceList out;
  const uint32_t* it = index.sparse_begin(ev);
  const uint32_t* end = index.sparse_end(ev);
  out.reserve(static_cast<size_t>(end - it));
  const SequenceDatabase& db = index.db();
  const uint64_t* offsets = db.offsets();
  const size_t num_seqs = db.size();
  SeqId s = 0;
  for (; it != end; ++it) {
    // Positions ascend, so each sequence lookup resumes past the last hit.
    s = static_cast<SeqId>(
        std::upper_bound(offsets + s + 1, offsets + num_seqs + 1,
                         static_cast<uint64_t>(*it)) -
        offsets - 1);
    const Pos p = static_cast<Pos>(*it - offsets[s]);
    out.push_back(IterInstance{s, p, p});
  }
  return out;
}

void ForwardExtensionsBitmap(const BitmapIndex& index, const Pattern& pattern,
                             const InstanceList& instances,
                             ProjectionWorkspace* ws, ForwardExtensionMap* out,
                             uint64_t min_support) {
  internal::ForwardExtensionsVertical(index, pattern, instances, ws, out,
                                      min_support);
}

const BackwardExtensionMap& BackwardExtensionsBitmap(
    const BitmapIndex& index, const Pattern& pattern,
    const InstanceList& instances, ProjectionWorkspace* ws,
    uint64_t min_support) {
  return internal::BackwardExtensionsVertical(index, pattern, instances, ws,
                                              min_support);
}

uint64_t CountInstancesBitmap(const BitmapIndex& index, const Pattern& pattern,
                              QreRecountScratch* scratch) {
  return internal::CountInstancesVertical(index, pattern, scratch);
}

size_t CountOccurrencesBitmap(const BitmapIndex& index,
                              const Pattern& pattern) {
  return internal::CountOccurrencesVertical(index, pattern);
}

}  // namespace specmine
