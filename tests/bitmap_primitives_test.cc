// The BitmapIndex word primitives and the union-row builds of both
// vertical indexes, checked against naive bit-by-bit oracles (not against
// another fast path): every (from, limit) range near a word boundary over
// random, all-zero and all-one rows, and alphabets around the sizes where
// a fixed-width row buffer would change code paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/itermine/bitmap_index.h"
#include "src/itermine/hybrid_index.h"
#include "src/trace/sequence_database.h"

namespace specmine {
namespace {

constexpr size_t kWords = 8;
constexpr size_t kBits = kWords * 64;

bool Bit(const std::vector<uint64_t>& row, size_t g) {
  return (row[g >> 6] >> (g & 63)) & 1;
}

size_t NaiveFirstSet(const std::vector<uint64_t>& row, size_t from,
                     size_t limit) {
  for (size_t g = from; g < limit; ++g) {
    if (Bit(row, g)) return g;
  }
  return kNoBit;
}

size_t NaiveLastSet(const std::vector<uint64_t>& row, size_t lo,
                    size_t before) {
  for (size_t g = before; g > lo; --g) {
    if (Bit(row, g - 1)) return g - 1;
  }
  return kNoBit;
}

size_t NaiveCount(const std::vector<uint64_t>& row, size_t from,
                  size_t limit) {
  size_t count = 0;
  for (size_t g = from; g < limit; ++g) count += Bit(row, g);
  return count;
}

// Every position within 2 of a word boundary, clipped to [0, kBits].
std::vector<size_t> BoundaryPositions() {
  std::vector<size_t> out;
  for (size_t b = 0; b <= kBits; b += 64) {
    for (size_t g = b < 2 ? 0 : b - 2; g <= b + 2 && g <= kBits; ++g) {
      out.push_back(g);
    }
  }
  return out;
}

void ExpectPrimitivesMatchOracle(const std::vector<uint64_t>& row,
                                 const std::string& shape) {
  const std::vector<size_t> positions = BoundaryPositions();
  for (size_t from : positions) {
    for (size_t limit : positions) {
      SCOPED_TRACE(shape + " [" + std::to_string(from) + ", " +
                   std::to_string(limit) + ")");
      const size_t first = NaiveFirstSet(row, from, limit);
      EXPECT_EQ(BitmapIndex::FirstSetAtOrAfter(row.data(), from, limit),
                first);
      EXPECT_EQ(BitmapIndex::AnyInRange(row.data(), from, limit),
                first != kNoBit);
      EXPECT_EQ(BitmapIndex::LastSetBefore(row.data(), from, limit),
                NaiveLastSet(row, from, limit));
      EXPECT_EQ(BitmapIndex::CountInRange(row.data(), from, limit),
                NaiveCount(row, from, limit));
    }
  }
}

TEST(BitmapPrimitivesTest, AllZeroRow) {
  ExpectPrimitivesMatchOracle(std::vector<uint64_t>(kWords, 0), "zero");
}

TEST(BitmapPrimitivesTest, AllOneRow) {
  ExpectPrimitivesMatchOracle(std::vector<uint64_t>(kWords, ~uint64_t{0}),
                              "ones");
}

TEST(BitmapPrimitivesTest, RandomRows) {
  std::mt19937_64 rng(20260417);
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<uint64_t> row(kWords);
    for (uint64_t& w : row) {
      w = rng();
      // Thin some rows out so the scans cross empty words too.
      if (trial % 2 == 1) w &= rng() & rng() & rng();
      if (trial % 4 == 3 && (rng() & 1)) w = 0;
    }
    ExpectPrimitivesMatchOracle(row, "random#" + std::to_string(trial));
  }
}

// ---------------------------------------------------------------------------
// BuildUnionForRange against a naive OR over the arena.

constexpr size_t kAlphabet = 40;

// A multi-sequence corpus over kAlphabet events with skewed frequencies,
// so a hybrid index with a small cutoff holds both dense and sparse
// events. Names are interned in id order ("e0" is id 0).
SequenceDatabase UnionCorpus() {
  SequenceDatabaseBuilder builder;
  std::vector<std::string> names;
  for (size_t e = 0; e < kAlphabet; ++e) {
    names.push_back("e" + std::to_string(e));
  }
  builder.AddTrace(names);
  std::mt19937_64 rng(7);
  for (int s = 0; s < 24; ++s) {
    std::vector<std::string> trace;
    const size_t len = 5 + rng() % 40;
    for (size_t i = 0; i < len; ++i) {
      // Low ids are frequent, high ids rare.
      const size_t e = (rng() % kAlphabet) * (rng() % kAlphabet) / kAlphabet;
      trace.push_back(names[e]);
    }
    builder.AddTrace(trace);
  }
  return builder.Build();
}

struct UnionCase {
  std::vector<EventId> alphabet;
  size_t base;
  size_t limit;
};

std::vector<UnionCase> UnionCases(const SequenceDatabase& db) {
  std::mt19937_64 rng(11);
  std::vector<UnionCase> cases;
  const uint64_t* offsets = db.offsets();
  for (size_t size : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                      size_t{17}, kAlphabet}) {
    for (int trial = 0; trial < 6; ++trial) {
      UnionCase c;
      std::vector<EventId> pool;
      for (EventId e = 0; e < kAlphabet; ++e) pool.push_back(e);
      std::shuffle(pool.begin(), pool.end(), rng);
      c.alphabet.assign(pool.begin(), pool.begin() + size);
      if (trial < 3) {
        // One sequence's range, as the per-sequence union builds use.
        const size_t s = rng() % db.size();
        c.base = offsets[s];
        c.limit = offsets[s + 1];
      } else {
        c.base = rng() % db.TotalEvents();
        c.limit = c.base + rng() % (db.TotalEvents() - c.base + 1);
      }
      cases.push_back(c);
    }
  }
  cases.push_back({{0, 1, 2}, 0, db.TotalEvents()});  // The whole arena.
  return cases;
}

// Runs \p build over every case on a garbage-filled buffer and checks each
// bit of the written word range against \p expect_bit(case, g, in_range);
// words outside the range must be untouched.
template <typename Build, typename ExpectBit>
void CheckUnionBuilds(const SequenceDatabase& db, size_t words, Build build,
                      ExpectBit expect_bit) {
  constexpr uint64_t kGarbage = 0xA5A5A5A5A5A5A5A5ull;
  for (const UnionCase& c : UnionCases(db)) {
    SCOPED_TRACE("alphabet " + std::to_string(c.alphabet.size()) + " [" +
                 std::to_string(c.base) + ", " + std::to_string(c.limit) +
                 ")");
    std::vector<uint64_t> out(words, kGarbage);
    build(c, &out);
    ASSERT_EQ(out.size(), words);
    if (c.base >= c.limit) {
      for (uint64_t w : out) EXPECT_EQ(w, kGarbage);
      continue;
    }
    const size_t wb = c.base >> 6;
    const size_t we = ((c.limit - 1) >> 6) + 1;
    for (size_t w = 0; w < words; ++w) {
      if (w < wb || w >= we) {
        EXPECT_EQ(out[w], kGarbage) << "word " << w;
        continue;
      }
      for (size_t g = w * 64; g < (w + 1) * 64; ++g) {
        const bool in_range = g >= c.base && g < c.limit;
        EXPECT_EQ(Bit(out, g), expect_bit(c, g, in_range)) << "bit " << g;
      }
    }
  }
}

bool InAlphabet(const UnionCase& c, EventId ev) {
  return std::find(c.alphabet.begin(), c.alphabet.end(), ev) !=
         c.alphabet.end();
}

TEST(BitmapPrimitivesTest, BitmapUnionIsTheOrOfAlphabetRows) {
  const SequenceDatabase db = UnionCorpus();
  const BitmapIndex index(db);
  ASSERT_EQ(index.num_events(), kAlphabet);
  const EventId* arena = db.arena();
  CheckUnionBuilds(
      db, index.words_per_row(),
      [&](const UnionCase& c, std::vector<uint64_t>* out) {
        index.BuildUnionForRange(c.alphabet, c.base, c.limit, out);
      },
      // Full rows are OR-ed, so the whole written word range is exact.
      [&](const UnionCase& c, size_t g, bool) {
        return g < db.TotalEvents() && InAlphabet(c, arena[g]);
      });
}

TEST(BitmapPrimitivesTest, HybridUnionMatchesOrOverDenseAndSparseEvents) {
  const SequenceDatabase db = UnionCorpus();
  const HybridIndex index(db, /*dense_cutoff=*/20);
  ASSERT_EQ(index.num_events(), kAlphabet);
  ASSERT_GT(index.num_dense_events(), 0u);
  ASSERT_LT(index.num_dense_events(), kAlphabet);
  const EventId* arena = db.arena();
  CheckUnionBuilds(
      db, index.words_per_row(),
      [&](const UnionCase& c, std::vector<uint64_t>* out) {
        index.BuildUnionForRange(c.alphabet, c.base, c.limit, out);
      },
      // Dense rows are OR-ed word-wise; sparse events only scatter their
      // in-range positions.
      [&](const UnionCase& c, size_t g, bool in_range) {
        if (g >= db.TotalEvents() || !InAlphabet(c, arena[g])) return false;
        return in_range || index.is_dense(arena[g]);
      });
}

TEST(BitmapPrimitivesTest, AllSparseHybridUnion) {
  const SequenceDatabase db = UnionCorpus();
  const HybridIndex index(db, /*dense_cutoff=*/~uint64_t{0});
  ASSERT_EQ(index.num_dense_events(), 0u);
  const EventId* arena = db.arena();
  CheckUnionBuilds(
      db, index.words_per_row(),
      [&](const UnionCase& c, std::vector<uint64_t>* out) {
        index.BuildUnionForRange(c.alphabet, c.base, c.limit, out);
      },
      [&](const UnionCase& c, size_t g, bool in_range) {
        return in_range && g < db.TotalEvents() && InAlphabet(c, arena[g]);
      });
}

}  // namespace
}  // namespace specmine
