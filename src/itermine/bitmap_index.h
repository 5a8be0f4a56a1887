// BitmapIndex: the vertical (SPAM-style) physical counting representation
// behind the iterative-pattern miners — per event, a word-packed occurrence
// bitmap over the flat event arena.
//
// Layout: bit g of event e's row is set iff arena[g] == e. Bit positions
// ARE arena positions, so the CSR sequence boundaries of SequenceDatabase
// (offsets[s]..offsets[s+1]) delimit sequence s's bits directly — no
// per-sequence padding, shared boundary words are handled by the range
// masks of the query primitives below. The projection queries become
// word-wise ops: "first alphabet(P) event after position p" is a
// find-first-set over an OR of alphabet rows, gap-freedom is an AND
// against a range mask, and occurrence counts are popcounts.
//
// Memory: num_events x ceil(total_events / 64) words. The table is dense
// in the alphabet (every event gets a full-width row), which is exactly
// the regime the adaptive chooser (ChooseBackendKind) gates on: small
// alphabets with frequent events — where the dense per-corpus offset
// table of PositionIndex wastes events x sequences cells — pay off;
// sparse huge-alphabet corpora stay on the CSR index.

#ifndef SPECMINE_ITERMINE_BITMAP_INDEX_H_
#define SPECMINE_ITERMINE_BITMAP_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/support/status.h"
#include "src/trace/position_index.h"
#include "src/trace/sequence_database.h"

namespace specmine {

/// \brief Sentinel for "no bit" returned by the scan primitives.
inline constexpr size_t kNoBit = ~size_t{0};

/// \brief Which physical counting representation backs a miner run.
/// kMerged is the lazy merged view over per-shard indexes (never chosen
/// directly; the Engine selects it for sharded sessions — see
/// merged_index.h).
enum class BackendKind { kCsr, kBitmap, kHybrid, kMerged };

/// \brief Backend selection in miner options: an explicit representation
/// or the adaptive per-database chooser. (kMerged has no explicit choice:
/// it is an Engine-internal representation of the same logical corpus.)
enum class BackendChoice { kAuto, kCsr, kBitmap, kHybrid };

/// \brief Short lowercase name ("csr" / "bitmap" / "hybrid" /
/// "lazy-merged") for reports and flags.
const char* BackendKindName(BackendKind kind);

/// \brief The adaptive chooser: picks the physical representation for
/// \p db from its shape, measured at index-build time.
///
/// Bitmap wins when rows are dense enough that one 64-bit word carries
/// several occurrences worth of scan work: the heuristic is
/// mean occurrences per event (TotalEvents / alphabet size) >= 8, with the
/// alphabet size entering a second time through the table-size cap
/// (alphabet x TotalEvents / 8 bytes <= 256 MB). Sparse corpora with a
/// large enough arena (>= 4096 events) go to the hybrid sparse/dense row
/// format, whose footprint is bounded by the corpus (not alphabet x
/// arena) and whose rare-event lists stay cache-resident where full
/// bitmap rows thrash. Everything else — tiny corpora, near-empty rows —
/// stays on the CSR position index.
BackendKind ChooseBackendKind(const SequenceDatabase& db);

/// \brief Resolves a BackendChoice against \p db: explicit choices pass
/// through, kAuto consults ChooseBackendKind.
inline BackendKind ResolveBackendKind(BackendChoice choice,
                                      const SequenceDatabase& db) {
  if (choice == BackendChoice::kCsr) return BackendKind::kCsr;
  if (choice == BackendChoice::kBitmap) return BackendKind::kBitmap;
  if (choice == BackendChoice::kHybrid) return BackendKind::kHybrid;
  return ChooseBackendKind(db);
}

/// \brief Verifies the bitmap table for \p db stays within the explicit
/// memory ceiling (1 GB); OutOfRange naming the size otherwise. The auto
/// chooser never exceeds it; this guards the explicit kBitmap override.
Status CheckBitmapIndexable(const SequenceDatabase& db);

/// \brief ResolveBackendKind with the table cap applied: an explicit
/// bitmap request beyond CheckBitmapIndexable is downgraded to CSR
/// (identical output). The policy of the Status-less db-level miner entry
/// points — the Engine path reports the same condition as OutOfRange
/// instead.
inline BackendKind ResolveBackendKindClamped(BackendChoice choice,
                                             const SequenceDatabase& db) {
  const BackendKind kind = ResolveBackendKind(choice, db);
  if (kind == BackendKind::kBitmap && !CheckBitmapIndexable(db).ok()) {
    return BackendKind::kCsr;
  }
  return kind;
}

/// \brief Per-event occurrence bitmaps over the event arena.
///
/// Built once per database in O(total events + events x words); immutable
/// afterwards. The database must outlive the index.
class BitmapIndex {
 public:
  explicit BitmapIndex(const SequenceDatabase& db);

  /// \brief The indexed database.
  const SequenceDatabase& db() const { return *db_; }

  /// \brief Number of distinct events the index knows about.
  size_t num_events() const { return num_events_; }

  /// \brief Words per event row: ceil(TotalEvents / 64).
  size_t words_per_row() const { return words_; }

  /// \brief Event \p ev's occurrence row (words_per_row() words); ev must
  /// be < num_events().
  const uint64_t* row(EventId ev) const {
    return bits_.data() + static_cast<size_t>(ev) * words_;
  }

  /// \brief Total occurrences of \p ev across the database.
  uint64_t TotalCount(EventId ev) const {
    return ev < total_counts_.size() ? total_counts_[ev] : 0;
  }

  /// \brief Number of sequences containing \p ev at least once.
  size_t SequenceCount(EventId ev) const {
    return ev < sequence_counts_.size() ? sequence_counts_[ev] : 0;
  }

  /// \brief Bytes held by the bitmap table.
  size_t table_bytes() const { return bits_.size() * sizeof(uint64_t); }

  // -------------------------------------------------------------------------
  // Word-wise scan primitives over one row (or any word array using the
  // same bit = arena-position convention). All ranges are half-open
  // [from, limit) in global bit positions; the masks below are what makes
  // unpadded sequence boundaries (and the 63/64/65-length edge cases the
  // tests pin down) safe.

  /// \brief First set bit in [from, limit), or kNoBit.
  static size_t FirstSetAtOrAfter(const uint64_t* row, size_t from,
                                  size_t limit) {
    if (from >= limit) return kNoBit;
    size_t w = from >> 6;
    const size_t last = (limit - 1) >> 6;
    uint64_t word = row[w] & (~uint64_t{0} << (from & 63));
    while (true) {
      if (word != 0) {
        const size_t bit = (w << 6) + static_cast<size_t>(std::countr_zero(word));
        return bit < limit ? bit : kNoBit;
      }
      if (w == last) return kNoBit;
      word = row[++w];
    }
  }

  /// \brief Last set bit in [lo, before), or kNoBit.
  static size_t LastSetBefore(const uint64_t* row, size_t lo, size_t before) {
    if (lo >= before) return kNoBit;
    size_t w = (before - 1) >> 6;
    const size_t first = lo >> 6;
    const unsigned top = (before - 1) & 63;
    uint64_t word = row[w] &
                    (top == 63 ? ~uint64_t{0} : (uint64_t{1} << (top + 1)) - 1);
    while (true) {
      if (word != 0) {
        const size_t bit =
            (w << 6) + 63 - static_cast<size_t>(std::countl_zero(word));
        return bit >= lo ? bit : kNoBit;
      }
      if (w == first) return kNoBit;
      word = row[--w];
    }
  }

  /// \brief True iff any bit of [from, limit) is set.
  static bool AnyInRange(const uint64_t* row, size_t from, size_t limit) {
    return FirstSetAtOrAfter(row, from, limit) != kNoBit;
  }

  /// \brief Number of set bits in [from, limit).
  static size_t CountInRange(const uint64_t* row, size_t from, size_t limit) {
    if (from >= limit) return 0;
    size_t w = from >> 6;
    const size_t last = (limit - 1) >> 6;
    uint64_t word = row[w] & (~uint64_t{0} << (from & 63));
    size_t count = 0;
    while (w < last) {
      count += static_cast<size_t>(std::popcount(word));
      word = row[++w];
    }
    const unsigned top = (limit - 1) & 63;
    word &= (top == 63 ? ~uint64_t{0} : (uint64_t{1} << (top + 1)) - 1);
    return count + static_cast<size_t>(std::popcount(word));
  }

  // -------------------------------------------------------------------------
  // The per-event query interface of the vertical projection template
  // (vertical_projection_impl.h): the statics above with the event id
  // resolved to this index's physical row. HybridIndex implements the same
  // members over its sparse/dense split.

  /// \brief First occurrence of \p ev in global bits [from, limit), or
  /// kNoBit; ev must be < num_events().
  size_t FirstOfEventAtOrAfter(EventId ev, size_t from, size_t limit) const {
    return FirstSetAtOrAfter(row(ev), from, limit);
  }

  /// \brief True iff \p ev occurs in global bits [from, limit).
  bool AnyOfEventInRange(EventId ev, size_t from, size_t limit) const {
    return AnyInRange(row(ev), from, limit);
  }

  /// \brief Occurrences of \p ev in global bits [from, limit).
  size_t CountOfEventInRange(EventId ev, size_t from, size_t limit) const {
    return CountInRange(row(ev), from, limit);
  }

  /// \brief ORs the \p alphabet events' occurrence rows into *union_words
  /// (resized to words_per_row() on growth) over the word range covering
  /// global bits [base, limit). Only that word range is written; queries
  /// must mask to it (shared boundary words carry neighbor-sequence bits).
  void BuildUnionForRange(const std::vector<EventId>& alphabet, size_t base,
                          size_t limit,
                          std::vector<uint64_t>* union_words) const {
    if (union_words->size() < words_) union_words->resize(words_, 0);
    if (base >= limit) return;
    const size_t wb = base >> 6;
    const size_t we = ((limit - 1) >> 6) + 1;
    uint64_t* out = union_words->data();
    std::fill(out + wb, out + we, uint64_t{0});
    for (EventId ev : alphabet) {
      const uint64_t* r = row(ev);
      for (size_t w = wb; w < we; ++w) out[w] |= r[w];
    }
  }

 private:
  const SequenceDatabase* db_;
  size_t num_events_ = 0;
  size_t words_ = 0;
  std::vector<uint64_t> bits_;  // num_events_ x words_, row-major.
  std::vector<uint64_t> total_counts_;
  std::vector<size_t> sequence_counts_;
};

}  // namespace specmine

#endif  // SPECMINE_ITERMINE_BITMAP_INDEX_H_
