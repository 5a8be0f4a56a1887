// EventMarkSet: an epoch-stamped dense membership set over event ids.
//
// The miners' inner loops need "have I seen this event?" and "is this
// event in the pattern alphabet?" tests millions of times per run. A hash
// set pays for hashing and rehashes on every query; this is one array
// lookup. Clear() is O(1) (an epoch bump), so one mark set is reused
// across every instance of every pattern node with zero allocation after
// the first sizing.

#ifndef SPECMINE_SUPPORT_EVENT_MARKS_H_
#define SPECMINE_SUPPORT_EVENT_MARKS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/trace/event_dictionary.h"

namespace specmine {

/// \brief Dense O(1) set of event ids with O(1) clear via epoch stamping.
class EventMarkSet {
 public:
  /// \brief Grows the backing store to cover ids < \p num_events. Cheap
  /// when already large enough; never shrinks.
  void EnsureSize(size_t num_events) {
    if (stamp_.size() < num_events) stamp_.resize(num_events, 0);
  }

  /// \brief Empties the set in O(1).
  void Clear() {
    if (++epoch_ == 0) {  // Stamp wrap: reset lazily, once per ~4B clears.
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  /// \brief True iff \p ev is in the set.
  bool Test(EventId ev) const { return stamp_[ev] == epoch_; }

  /// \brief Inserts \p ev.
  void Set(EventId ev) { stamp_[ev] = epoch_; }

  /// \brief Inserts \p ev; true iff it was not yet present.
  bool TestAndSet(EventId ev) {
    if (stamp_[ev] == epoch_) return false;
    stamp_[ev] = epoch_;
    return true;
  }

 private:
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 1;  // Stamps default to 0 == "not present".
};

/// \brief Dense per-event value slots with O(1) epoch reset and a
/// touched-id list — the scalar-payload sibling of ExtensionAccumulator
/// (which holds vector buckets). A slot is value-initialized on its first
/// touch of an epoch.
template <typename T>
class EpochSlots {
 public:
  /// \brief Starts a new epoch over \p num_events ids.
  void Reset(size_t num_events) {
    if (stamp_.size() < num_events) {
      stamp_.resize(num_events, 0);
      slots_.resize(num_events);
    }
    touched_.clear();
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  /// \brief The slot for \p ev, freshly value-initialized on first touch.
  T& Slot(EventId ev) {
    if (stamp_[ev] != epoch_) {
      stamp_[ev] = epoch_;
      touched_.push_back(ev);
      slots_[ev] = T{};
    }
    return slots_[ev];
  }

  /// \brief Read-only slot access; the id must have been touched.
  const T& At(EventId ev) const { return slots_[ev]; }

  /// \brief The slot for \p ev if touched this epoch, else nullptr (never
  /// touches it).
  T* Find(EventId ev) {
    return ev < stamp_.size() && stamp_[ev] == epoch_ ? &slots_[ev] : nullptr;
  }

  /// \brief Ids touched this epoch, in touch order (mutable for sorting).
  std::vector<EventId>& touched() { return touched_; }

 private:
  std::vector<T> slots_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 1;
  std::vector<EventId> touched_;
};

}  // namespace specmine

#endif  // SPECMINE_SUPPORT_EVENT_MARKS_H_
