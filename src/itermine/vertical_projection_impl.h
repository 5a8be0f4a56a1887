// Internal: the templated bodies of the vertical projection queries.
//
// The algorithms here are the word-wise arms documented in
// bitmap_projection.h, templated over the physical row format so that
// BitmapIndex (dense rows) and HybridIndex (dense rows + sorted
// rare-event ID lists) share one implementation. The Index parameter must
// provide:
//
//   const SequenceDatabase& db() const;
//   size_t num_events() const;
//   uint64_t TotalCount(EventId ev) const;
//   size_t FirstOfEventAtOrAfter(EventId ev, size_t from, size_t limit);
//   bool AnyOfEventInRange(EventId ev, size_t from, size_t limit);
//   size_t CountOfEventInRange(EventId ev, size_t from, size_t limit);
//   void BuildUnionForRange(const std::vector<EventId>& alphabet,
//                           size_t base, size_t limit,
//                           std::vector<uint64_t>* union_words);
//
// with the global-bit conventions of bitmap_index.h (bit g = arena
// position g, ranges half-open, kNoBit = none). Union rows are always
// word-packed — rare hybrid events are scattered into the union as bits —
// so the union-row scans call the BitmapIndex word primitives directly.
//
// Callers outside bitmap_projection.cc / hybrid_index.cc should use the
// CountingBackend dispatch layer, not this header.

#ifndef SPECMINE_ITERMINE_VERTICAL_PROJECTION_IMPL_H_
#define SPECMINE_ITERMINE_VERTICAL_PROJECTION_IMPL_H_

#include <algorithm>
#include <vector>

#include "src/itermine/bitmap_projection.h"
#include "src/itermine/projection.h"

namespace specmine {
namespace internal {

// Whether an instance list spanning `distinct_seqs` sequences should build
// the alphabet union row once over the whole arena instead of once per
// sequence. Per-sequence builds are dominated by call-and-mask overhead on
// short ranges (~16 word-ops each), while the single long build is one
// straight OR loop; BuildUnionForRange overwrites its range, so both
// strategies leave identical bits in every probed range.
inline bool UseWholeRowUnion(size_t distinct_seqs, size_t total_words) {
  return distinct_seqs * 16 >= total_words;
}

// Number of distinct sequences in an instance list (instances arrive
// grouped by sequence, so transitions count them exactly).
inline size_t DistinctSequences(const InstanceList& instances) {
  size_t distinct = 0;
  SeqId prev = ~SeqId{0};
  for (const IterInstance& inst : instances) {
    if (inst.seq != prev) {
      prev = inst.seq;
      ++distinct;
    }
  }
  return distinct;
}

// Collects the distinct pattern events into *alphabet (cleared first).
// Patterns are short, so the quadratic dedup beats any table.
inline void DistinctAlphabet(const Pattern& pattern, size_t num_events,
                             std::vector<EventId>* alphabet) {
  alphabet->clear();
  for (EventId ev : pattern) {
    if (ev >= num_events) continue;  // Defensive; ids come from dict.
    if (std::find(alphabet->begin(), alphabet->end(), ev) ==
        alphabet->end()) {
      alphabet->push_back(ev);
    }
  }
}

// Marks every event occurring strictly inside the instance span (the
// gaps) into *gap_events (cleared first) with one sequential arena walk.
// Gap-freedom per candidate then costs one O(1) membership test instead
// of a per-candidate row probe — the probes were ~5 single-word primitive
// calls per instance, pure call-and-mask overhead. `base` is the global
// bit offset of the instance's sequence.
inline void MarkGapEvents(const EventId* arena, size_t num_events,
                          size_t base, const IterInstance& inst,
                          EventMarkSet* gap_events) {
  gap_events->Clear();
  const size_t gap_end = base + inst.end;
  for (size_t g = base + inst.start + 1; g < gap_end; ++g) {
    if (arena[g] < num_events) gap_events->Set(arena[g]);
  }
}

// The backward queries' early stop. Each instance raises an event's
// support by at most 1 (a window holds one alphabet event and first
// occurrences only), so once the best support so far plus the instances
// still to scan is below min_support, no entry can survive the drain and
// the scan may end: the result is the same empty map. For the closed
// miner's equal-support query (min_support == instances.size()) this is
// "no event has appeared before every instance so far".
class BackwardReach {
 public:
  BackwardReach(size_t num_instances, uint64_t min_support)
      : remaining_(num_instances), min_support_(min_support) {}

  /// \brief Counts one occurrence of an extension in the current instance.
  void Count(BackwardExtension* ext, bool adjacent) {
    ++ext->support;
    ext->all_adjacent = ext->all_adjacent && adjacent;
    best_ = std::max(best_, ext->support);
  }

  /// \brief Closes the current instance; true iff no event can still
  /// reach min_support.
  bool EndInstance() {
    --remaining_;
    return best_ + remaining_ < min_support_;
  }

 private:
  uint64_t remaining_;
  uint64_t min_support_;
  uint64_t best_ = 0;
};

template <typename Index>
InstanceList SingleEventInstancesVertical(const Index& index, EventId ev) {
  InstanceList out;
  if (ev >= index.num_events()) return out;
  out.reserve(index.TotalCount(ev));
  const SequenceDatabase& db = index.db();
  const uint64_t* offsets = db.offsets();
  for (SeqId s = 0; s < db.size(); ++s) {
    const size_t base = offsets[s];
    const size_t limit = offsets[s + 1];
    for (size_t g = index.FirstOfEventAtOrAfter(ev, base, limit);
         g != kNoBit; g = index.FirstOfEventAtOrAfter(ev, g + 1, limit)) {
      const Pos p = static_cast<Pos>(g - base);
      out.push_back(IterInstance{s, p, p});
    }
  }
  return out;
}

template <typename Index>
void ForwardExtensionsVertical(const Index& index, const Pattern& pattern,
                               const InstanceList& instances,
                               ProjectionWorkspace* ws,
                               ForwardExtensionMap* out,
                               uint64_t min_support) {
  BitmapProjectionScratch& sc = ws->bitmap;
  const size_t num_events = index.num_events();
  const SequenceDatabase& db = index.db();
  const EventId* arena = db.arena();
  const uint64_t* offsets = db.offsets();
  DistinctAlphabet(pattern, num_events, &sc.alphabet);
  sc.forward.clear();
  sc.slots.Reset(num_events);
  ws->seen.EnsureSize(num_events);
  // One-event patterns have no gaps, so the gap set stays untouched.
  const bool has_gaps = pattern.size() > 1;
  if (has_gaps) sc.gap_events.EnsureSize(num_events);

  const size_t total_bits = offsets[db.size()];
  const bool whole_row =
      UseWholeRowUnion(DistinctSequences(instances), (total_bits + 63) >> 6);
  if (whole_row) {
    index.BuildUnionForRange(sc.alphabet, 0, total_bits, &sc.union_words);
  }
  SeqId prepared = ~SeqId{0};
  size_t base = 0, limit = 0;
  for (const IterInstance& inst : instances) {
    if (inst.seq != prepared) {
      prepared = inst.seq;
      base = offsets[inst.seq];
      limit = offsets[inst.seq + 1];
      if (!whole_row) {
        index.BuildUnionForRange(sc.alphabet, base, limit, &sc.union_words);
      }
    }
    if (has_gaps) {
      MarkGapEvents(arena, num_events, base, inst, &sc.gap_events);
    }
    const size_t from = base + inst.end + 1;
    // First alphabet(P) event after the instance: bounds the candidate
    // window — everything before it is out-of-alphabet by construction —
    // and is itself the unique alphabet extension endpoint.
    const size_t stop =
        BitmapIndex::FirstSetAtOrAfter(sc.union_words.data(), from, limit);
    const size_t window_end = stop == kNoBit ? limit : stop;
    ws->seen.Clear();
    for (size_t g = from; g < window_end; ++g) {
      const EventId ev = arena[g];
      if (ev >= num_events) continue;  // Defensive; ids come from dict.
      if (!ws->seen.TestAndSet(ev)) continue;  // First occurrence only.
      if (has_gaps && sc.gap_events.Test(ev)) continue;
      ++sc.slots.Slot(ev);
      sc.forward.push_back(BitmapProjectionScratch::ForwardCandidate{
          ev, IterInstance{inst.seq, inst.start, static_cast<Pos>(g - base)}});
    }
    if (stop != kNoBit) {
      ++sc.slots.Slot(arena[stop]);
      sc.forward.push_back(BitmapProjectionScratch::ForwardCandidate{
          arena[stop],
          IterInstance{inst.seq, inst.start, static_cast<Pos>(stop - base)}});
    }
  }

  // Count-and-scatter drain: the touched-event list gives exact bucket
  // sizes, so each bucket is reserved once (no realloc churn — the CSR
  // cold path's dominant cost) and the flat buffer is scattered in
  // discovery order, which within an event IS the CSR bucket order.
  // Events below the threshold are dropped first and their slots marked,
  // so only the surviving distinct events are sorted and only their
  // candidates are copied; the K candidates themselves are never sorted.
  constexpr uint32_t kDropped = ~uint32_t{0};
  std::vector<EventId>& touched = sc.slots.touched();
  size_t kept = 0;
  for (EventId ev : touched) {
    uint32_t& slot = sc.slots.Slot(ev);
    if (slot >= min_support) {
      touched[kept++] = ev;
    } else {
      slot = kDropped;
    }
  }
  touched.resize(kept);
  std::sort(touched.begin(), touched.end());
  out->clear();
  out->entries().reserve(touched.size());
  for (size_t i = 0; i < touched.size(); ++i) {
    const EventId ev = touched[i];
    InstanceList bucket = ws->forward.AcquireBucket();
    bucket.reserve(sc.slots.At(ev));
    out->emplace_back(ev, std::move(bucket));
    // Repurpose the slot as the event's entry index for the scatter.
    sc.slots.Slot(ev) = static_cast<uint32_t>(i);
  }
  auto& entries = out->entries();
  for (const BitmapProjectionScratch::ForwardCandidate& cand : sc.forward) {
    const uint32_t entry = sc.slots.At(cand.ev);
    if (entry != kDropped) entries[entry].second.push_back(cand.inst);
  }
}

template <typename Index>
const BackwardExtensionMap& BackwardExtensionsVertical(
    const Index& index, const Pattern& pattern, const InstanceList& instances,
    ProjectionWorkspace* ws, uint64_t min_support) {
  BitmapProjectionScratch& sc = ws->bitmap;
  const size_t num_events = index.num_events();
  const SequenceDatabase& db = index.db();
  const EventId* arena = db.arena();
  const uint64_t* offsets = db.offsets();
  DistinctAlphabet(pattern, num_events, &sc.alphabet);
  ws->back.Reset(num_events);
  ws->seen.EnsureSize(num_events);
  const bool has_gaps = pattern.size() > 1;
  if (has_gaps) sc.gap_events.EnsureSize(num_events);

  const size_t total_bits = offsets[db.size()];
  const bool whole_row =
      UseWholeRowUnion(DistinctSequences(instances), (total_bits + 63) >> 6);
  if (whole_row) {
    index.BuildUnionForRange(sc.alphabet, 0, total_bits, &sc.union_words);
  }
  BackwardReach reach(instances.size(), min_support);
  SeqId prepared = ~SeqId{0};
  size_t base = 0, limit = 0;
  for (const IterInstance& inst : instances) {
    if (inst.seq != prepared) {
      prepared = inst.seq;
      base = offsets[inst.seq];
      limit = offsets[inst.seq + 1];
      if (!whole_row) {
        index.BuildUnionForRange(sc.alphabet, base, limit, &sc.union_words);
      }
    }
    if (has_gaps) {
      MarkGapEvents(arena, num_events, base, inst, &sc.gap_events);
    }
    const size_t gstart = base + inst.start;
    // Last alphabet(P) event before the instance start bounds the window;
    // it is itself the unique alphabet backward extension.
    const size_t stop =
        BitmapIndex::LastSetBefore(sc.union_words.data(), base, gstart);
    const size_t window_begin = stop == kNoBit ? base : stop + 1;
    ws->seen.Clear();
    for (size_t g = gstart; g-- > window_begin;) {
      const EventId ev = arena[g];
      if (ev >= num_events) continue;  // Defensive; ids come from dict.
      if (!ws->seen.TestAndSet(ev)) continue;  // Nearest-to-start only.
      if (has_gaps && sc.gap_events.Test(ev)) continue;
      reach.Count(&ws->back.Slot(ev), g + 1 == gstart);
    }
    if (stop != kNoBit) {
      reach.Count(&ws->back.Slot(arena[stop]), stop + 1 == gstart);
    }
    if (reach.EndInstance()) break;
  }
  return ws->DrainBackward(min_support);
}

template <typename Index>
uint64_t CountInstancesVertical(const Index& index, const Pattern& pattern,
                                QreRecountScratch* scratch) {
  if (pattern.empty()) return 0;
  QreRecountScratch local;
  if (scratch == nullptr) scratch = &local;
  const size_t num_events = index.num_events();
  if (pattern[0] >= num_events) return 0;  // First event never occurs.
  DistinctAlphabet(pattern, num_events, &scratch->alphabet);
  const SequenceDatabase& db = index.db();
  const EventId* arena = db.arena();
  const uint64_t* offsets = db.offsets();
  const EventId head = pattern[0];
  uint64_t count = 0;
  for (SeqId s = 0; s < db.size(); ++s) {
    const size_t base = offsets[s];
    const size_t limit = offsets[s + 1];
    size_t g = index.FirstOfEventAtOrAfter(head, base, limit);
    if (g == kNoBit) continue;
    index.BuildUnionForRange(scratch->alphabet, base, limit,
                             &scratch->union_words);
    const uint64_t* union_row = scratch->union_words.data();
    for (; g != kNoBit; g = index.FirstOfEventAtOrAfter(head, g + 1, limit)) {
      // Deterministic chain (Definition 4.1): each next pattern event must
      // be the first alphabet event after the previous one.
      size_t cur = g;
      bool ok = true;
      for (size_t k = 1; k < pattern.size(); ++k) {
        const size_t a =
            BitmapIndex::FirstSetAtOrAfter(union_row, cur + 1, limit);
        if (a == kNoBit || arena[a] != pattern[k]) {
          ok = false;
          break;
        }
        cur = a;
      }
      if (ok) ++count;
    }
  }
  return count;
}

template <typename Index>
size_t CountOccurrencesVertical(const Index& index, const Pattern& pattern) {
  if (pattern.empty()) return 0;
  const size_t num_events = index.num_events();
  const SequenceDatabase& db = index.db();
  const uint64_t* offsets = db.offsets();
  const EventId last = pattern.last();
  if (last >= num_events) return 0;
  size_t count = 0;
  for (SeqId s = 0; s < db.size(); ++s) {
    const size_t base = offsets[s];
    const size_t limit = offsets[s + 1];
    // Greedy earliest embedding of the prefix, one first-set-bit per
    // event; the remaining occurrences of the last event are the temporal
    // points (Definition 5.1).
    size_t from = base;
    bool embedded = true;
    for (size_t k = 0; k + 1 < pattern.size(); ++k) {
      if (pattern[k] >= num_events) {
        embedded = false;
        break;
      }
      const size_t g = index.FirstOfEventAtOrAfter(pattern[k], from, limit);
      if (g == kNoBit) {
        embedded = false;
        break;
      }
      from = g + 1;
    }
    if (!embedded) continue;
    count += index.CountOfEventInRange(last, from, limit);
  }
  return count;
}

}  // namespace internal
}  // namespace specmine

#endif  // SPECMINE_ITERMINE_VERTICAL_PROJECTION_IMPL_H_
