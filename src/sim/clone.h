// Copying a running system (the explorer's checkpoints, DESIGN.md §12).
//
// Every component of a scenario offers a copy_to(slot, ...) that copies
// it into `slot`, an owning pointer that may already hold an object of
// the same kind: when the slot holds the same dynamic type the copy is
// an assignment into it (copy_into), so the slot's vectors, strings and
// tree nodes are reused, and otherwise the slot gets a fresh copy. For
// processes, modules, oracles, schedulers and invariants the default
// returns false, meaning "not cloneable" (the idiom of encode_state's
// opaque default): a system with any such part is simply rebuilt and
// re-executed instead, and the half-written slot is discarded. A copy
// holds its source's state and shares only immutable payloads
// (PayloadPtr) with it; every pointer the source borrows is re-pointed
// at the copy's own copy of the borrowed object, so the source stays
// untouched while the copy runs. The CloneMap carries what those
// re-pointings need from outside the component being copied.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <typeinfo>
#include <utility>

#include "common/check.h"
#include "sim/choice.h"

namespace wfd::sim {

/// Copies `src` into `slot` and returns the copy: an assignment when
/// `slot` holds an object of exactly T's type, else a fresh copy. T
/// must be `src`'s dynamic type — a subclass that inherits its base's
/// copy_to would be sliced, so it must override it.
template <typename T, typename Base>
T& copy_into(const T& src, std::unique_ptr<Base>& slot) {
  WFD_CHECK_MSG(typeid(src) == typeid(T), "copy_to not overridden");
  if (slot != nullptr && typeid(*slot) == typeid(T)) {
    T& to = static_cast<T&>(*slot);
    to = src;
    return to;
  }
  auto copy = std::make_unique<T>(src);
  T& to = *copy;
  slot = std::move(copy);
  return to;
}

/// What a copy re-points its source's borrowed pointers to: the
/// decision source its choice points ask (ReplayScheduler, choice-driven
/// oracles), and the copies of objects outside the simulator that
/// modules borrow, such as a register History an invariant owns.
/// Same-host module references need no entry: they are positions and
/// hooks (sim/module.h), which a copy keeps as they are.
class CloneMap {
 public:
  explicit CloneMap(ChoiceSource& choices) : choices_(&choices) {}

  [[nodiscard]] ChoiceSource& choices() const { return *choices_; }

  /// Record that `copy` is the copy of `source`.
  void add(const void* source, void* copy) {
    WFD_CHECK_MSG(size_ < pairs_.size(), "raise CloneMap's capacity");
    pairs_[size_++] = {source, copy};
  }

  /// The copy recorded for `source`; null when there is none.
  template <typename T>
  [[nodiscard]] T* find(const T* source) const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (pairs_[i].first == source) return static_cast<T*>(pairs_[i].second);
    }
    return nullptr;
  }

 private:
  ChoiceSource* choices_;
  /// Inline: a copy is taken per explored run, and a scenario shares
  /// only a few objects this way.
  std::array<std::pair<const void*, void*>, 4> pairs_{};
  std::size_t size_ = 0;
};

}  // namespace wfd::sim
