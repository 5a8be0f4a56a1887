#include "src/itermine/projection.h"

#include <algorithm>
#include <cassert>

#include "src/itermine/bitmap_projection.h"
#include "src/itermine/merged_index.h"
#include "src/itermine/vertical_projection_impl.h"

namespace specmine {

InstanceList SingleEventInstances(const PositionIndex& index, EventId ev) {
  InstanceList out;
  out.reserve(index.TotalCount(ev));
  const SequenceDatabase& db = index.db();
  for (SeqId s = 0; s < db.size(); ++s) {
    for (Pos p : index.Positions(ev, s)) {
      out.push_back(IterInstance{s, p, p});
    }
  }
  return out;
}

std::vector<EventId> FrequentRoots(const PositionIndex& index,
                                   uint64_t min_support) {
  std::vector<EventId> roots;
  for (EventId ev = 0; ev < index.num_events(); ++ev) {
    if (index.TotalCount(ev) >= min_support) roots.push_back(ev);
  }
  return roots;
}

namespace {

// True iff `ev` (not in the pattern alphabet) occurs strictly inside the
// instance span — necessarily inside a gap, which would invalidate any
// extension whose alphabet includes `ev`.
bool OccursInGaps(const PositionIndex& index, EventId ev,
                  const IterInstance& inst) {
  if (inst.end <= inst.start + 1) return false;
  return index.CountInRange(ev, inst.seq, inst.start + 1, inst.end - 1) > 0;
}

// Stamps the pattern's alphabet into ws->alphabet and sizes the mark sets.
void PrepareAlphabet(const Pattern& pattern, size_t num_events,
                     ProjectionWorkspace* ws) {
  ws->alphabet.EnsureSize(num_events);
  ws->seen.EnsureSize(num_events);
  ws->alphabet.Clear();
  for (EventId ev : pattern) ws->alphabet.Set(ev);
}

}  // namespace

const BackwardExtensionMap& ProjectionWorkspace::DrainBackward(
    uint64_t min_support) {
  std::vector<EventId>& touched = back.touched();
  size_t kept = 0;
  for (EventId ev : touched) {
    if (back.At(ev).support >= min_support) touched[kept++] = ev;
  }
  touched.resize(kept);
  std::sort(touched.begin(), touched.end());
  back_result.clear();
  for (EventId ev : touched) back_result.emplace_back(ev, back.At(ev));
  return back_result;
}

void ForwardExtensions(const PositionIndex& index, const Pattern& pattern,
                       const InstanceList& instances,
                       ProjectionWorkspace* ws, ForwardExtensionMap* out,
                       uint64_t min_support) {
  const SequenceDatabase& db = index.db();
  const size_t num_events = index.num_events();
  PrepareAlphabet(pattern, num_events, ws);
  ws->forward.Reset(num_events);
  for (const IterInstance& inst : instances) {
    const EventSpan seq = db[inst.seq];
    ws->seen.Clear();
    for (Pos p = inst.end + 1; p < seq.size(); ++p) {
      EventId ev = seq[p];
      if (ev >= num_events) continue;  // Defensive; ids come from dict.
      if (ws->alphabet.Test(ev)) {
        // First alphabet event after the instance: `ev` itself is a valid
        // extension (its exclusion set is exactly the alphabet and the
        // scanned segment contains none of it); nothing beyond it can be.
        ws->forward.Bucket(ev).push_back(IterInstance{inst.seq, inst.start, p});
        break;
      }
      if (!ws->seen.TestAndSet(ev)) continue;  // Only the first occurrence.
      if (OccursInGaps(index, ev, inst)) continue;
      ws->forward.Bucket(ev).push_back(IterInstance{inst.seq, inst.start, p});
    }
  }
  ws->forward.Drain(out, min_support);
}

const BackwardExtensionMap& BackwardExtensions(const PositionIndex& index,
                                               const Pattern& pattern,
                                               const InstanceList& instances,
                                               ProjectionWorkspace* ws,
                                               uint64_t min_support) {
  const SequenceDatabase& db = index.db();
  const size_t num_events = index.num_events();
  PrepareAlphabet(pattern, num_events, ws);
  ws->back.Reset(num_events);
  internal::BackwardReach reach(instances.size(), min_support);
  for (const IterInstance& inst : instances) {
    const EventSpan seq = db[inst.seq];
    ws->seen.Clear();
    for (Pos p = inst.start; p-- > 0;) {
      EventId ev = seq[p];
      if (ev >= num_events) continue;  // Defensive; ids come from dict.
      bool adjacent = (p + 1 == inst.start);
      if (ws->alphabet.Test(ev)) {
        reach.Count(&ws->back.Slot(ev), adjacent);
        break;
      }
      if (!ws->seen.TestAndSet(ev)) continue;
      if (OccursInGaps(index, ev, inst)) continue;
      reach.Count(&ws->back.Slot(ev), adjacent);
    }
    if (reach.EndInstance()) break;
  }
  return ws->DrainBackward(min_support);
}

namespace {

// One instance's events for the infix-absorber check: its sequence and,
// for a shard-local arena, the local -> merged id table (null when the ids
// are already the caller's).
struct InfixSpan {
  EventSpan seq;
  const std::vector<EventId>* remap = nullptr;
};

// The one body of the db-level and merged HasUniformInfixAbsorber;
// `open(inst)` yields each instance's InfixSpan.
template <typename OpenSpan>
bool UniformInfixAbsorberBody(const Pattern& pattern,
                              const InstanceList& instances,
                              size_t num_events, ProjectionWorkspace* ws,
                              OpenSpan open) {
  assert(pattern.size() >= 2);
  if (instances.empty()) return false;
  PrepareAlphabet(pattern, num_events, ws);
  const size_t num_gaps = pattern.size() - 1;

  // Profile of the first instance; then intersect with each later one.
  // A profile is the per-gap occurrence count vector of one out-of-alphabet
  // event inside the instance span. After the first instance only the
  // surviving candidates (marked in ws->seen) are profiled: no other event
  // can be in the intersection.
  auto& common = ws->common;
  for (size_t i = 0; i < instances.size(); ++i) {
    const IterInstance& inst = instances[i];
    const InfixSpan span = open(inst);
    ws->profiles.Reset(num_events);
    size_t gap = 0;  // Index of the gap we are currently inside.
    for (Pos p = inst.start + 1; p <= inst.end; ++p) {
      EventId ev = span.seq[p];
      if (span.remap != nullptr) {
        if (ev >= span.remap->size()) continue;  // Defensive.
        ev = (*span.remap)[ev];
      }
      if (ev >= num_events) continue;  // Defensive; ids come from dict.
      if (ws->alphabet.Test(ev)) {
        // By the QRE this must be the next pattern event.
        ++gap;
        continue;
      }
      if (i != 0 && !ws->seen.Test(ev)) continue;
      auto& profile = ws->profiles.Bucket(ev);
      if (profile.empty()) profile.assign(num_gaps, 0);
      ++profile[gap];
    }
    if (i == 0) {
      ws->profiles.Drain(&common);
    } else {
      // Keep only events whose profile matches exactly.
      auto& entries = common.entries();
      size_t kept = 0;
      for (auto& entry : entries) {
        const auto* current = ws->profiles.FindTouched(entry.first);
        if (current != nullptr && *current == entry.second) {
          if (kept != static_cast<size_t>(&entry - entries.data())) {
            entries[kept] = std::move(entry);
          }
          ++kept;
        } else {
          ws->profiles.Recycle(std::move(entry.second));
        }
      }
      entries.resize(kept);
    }
    if (common.empty()) break;
    ws->seen.Clear();
    for (const auto& entry : common) ws->seen.Set(entry.first);
  }
  const bool result = !common.empty();
  ws->profiles.Recycle(std::move(common));
  return result;
}

}  // namespace

bool HasUniformInfixAbsorber(const SequenceDatabase& db,
                             const Pattern& pattern,
                             const InstanceList& instances,
                             ProjectionWorkspace* ws) {
  return UniformInfixAbsorberBody(pattern, instances,
                                  db.dictionary().size(), ws,
                                  [&db](const IterInstance& inst) {
                                    return InfixSpan{db[inst.seq], nullptr};
                                  });
}

// ---------------------------------------------------------------------------
// Backend dispatch: one branch per query, never per position.

InstanceList SingleEventInstances(const CountingBackend& backend,
                                  EventId ev) {
  switch (backend.kind()) {
    case BackendKind::kBitmap:
      return SingleEventInstancesBitmap(backend.bitmap(), ev);
    case BackendKind::kHybrid:
      return SingleEventInstancesHybrid(backend.hybrid(), ev);
    case BackendKind::kMerged:
      return SingleEventInstancesMerged(backend.merged(), ev);
    default:
      return SingleEventInstances(backend.csr(), ev);
  }
}

std::vector<EventId> FrequentRoots(const CountingBackend& backend,
                                   uint64_t min_support) {
  std::vector<EventId> roots;
  for (EventId ev = 0; ev < backend.num_events(); ++ev) {
    if (backend.TotalCount(ev) >= min_support) roots.push_back(ev);
  }
  return roots;
}

void ForwardExtensions(const CountingBackend& backend, const Pattern& pattern,
                       const InstanceList& instances,
                       ProjectionWorkspace* ws, ForwardExtensionMap* out,
                       uint64_t min_support) {
  switch (backend.kind()) {
    case BackendKind::kBitmap:
      ForwardExtensionsBitmap(backend.bitmap(), pattern, instances, ws, out,
                              min_support);
      return;
    case BackendKind::kHybrid:
      internal::ForwardExtensionsVertical(backend.hybrid(), pattern,
                                          instances, ws, out, min_support);
      return;
    case BackendKind::kMerged:
      ForwardExtensionsMerged(backend.merged(), pattern, instances, ws, out,
                              min_support);
      return;
    default:
      ForwardExtensions(backend.csr(), pattern, instances, ws, out,
                        min_support);
      return;
  }
}

const BackwardExtensionMap& BackwardExtensions(const CountingBackend& backend,
                                               const Pattern& pattern,
                                               const InstanceList& instances,
                                               ProjectionWorkspace* ws,
                                               uint64_t min_support) {
  switch (backend.kind()) {
    case BackendKind::kBitmap:
      return BackwardExtensionsBitmap(backend.bitmap(), pattern, instances,
                                      ws, min_support);
    case BackendKind::kHybrid:
      return internal::BackwardExtensionsVertical(backend.hybrid(), pattern,
                                                  instances, ws, min_support);
    case BackendKind::kMerged:
      return BackwardExtensionsMerged(backend.merged(), pattern, instances,
                                      ws, min_support);
    default:
      return BackwardExtensions(backend.csr(), pattern, instances, ws,
                                min_support);
  }
}

bool HasUniformInfixAbsorber(const CountingBackend& backend,
                             const Pattern& pattern,
                             const InstanceList& instances,
                             ProjectionWorkspace* ws) {
  if (backend.kind() == BackendKind::kMerged) {
    // Each instance's span is read from its shard's local arena and every
    // event translated to merged ids on the fly: profiles and the alphabet
    // marks live in merged event space, so the cross-shard intersection is
    // exact, and no merged database is ever built.
    const MergedCountingIndex& index = backend.merged();
    return UniformInfixAbsorberBody(
        pattern, instances, index.num_events(), ws,
        [&index](const IterInstance& inst) {
          const size_t shard = index.ShardOfSequence(inst.seq);
          const SequenceDatabase& sdb = index.shard_backend(shard).db();
          return InfixSpan{sdb[inst.seq - index.seq_base(shard)],
                           &index.shard_set().remap(shard)};
        });
  }
  return HasUniformInfixAbsorber(backend.db(), pattern, instances, ws);
}

ForwardExtensionMap ForwardExtensions(const PositionIndex& index,
                                      const Pattern& pattern,
                                      const InstanceList& instances) {
  ProjectionWorkspace ws;
  ForwardExtensionMap out;
  ForwardExtensions(index, pattern, instances, &ws, &out);
  return out;
}

BackwardExtensionMap BackwardExtensions(const PositionIndex& index,
                                        const Pattern& pattern,
                                        const InstanceList& instances) {
  ProjectionWorkspace ws;
  return BackwardExtensions(index, pattern, instances, &ws);
}

bool HasUniformInfixAbsorber(const SequenceDatabase& db,
                             const Pattern& pattern,
                             const InstanceList& instances) {
  ProjectionWorkspace ws;
  return HasUniformInfixAbsorber(db, pattern, instances, &ws);
}

}  // namespace specmine
