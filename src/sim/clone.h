// Cloning a running system (the explorer's checkpoints, DESIGN.md §12).
//
// Every component of a scenario — process, module, oracle, scheduler,
// invariant, liveness clause — offers a clone() whose default returns
// null, meaning "not cloneable" (the idiom of encode_state's opaque
// default): a system with any such part is simply rebuilt and
// re-executed instead. A clone copies its source's state and shares
// only immutable payloads (PayloadPtr) with it; every pointer the
// source borrows is re-pointed at the clone's own copy of the borrowed
// object, so the source stays untouched while the clone runs. The
// CloneMap carries what those re-pointings need from outside the
// component being copied.
#pragma once

#include <array>
#include <cstddef>
#include <utility>

#include "common/check.h"
#include "sim/choice.h"

namespace wfd::sim {

/// What a clone re-points its source's borrowed pointers to: the
/// decision source its choice points ask (ReplayScheduler, choice-driven
/// oracles), and the copies of objects outside the simulator that
/// modules borrow, such as a register History an invariant owns.
/// Same-host module references are re-pointed by position instead
/// (ModuleHost::counterpart).
class CloneMap {
 public:
  explicit CloneMap(ChoiceSource& choices) : choices_(&choices) {}

  [[nodiscard]] ChoiceSource& choices() const { return *choices_; }

  /// Record that `copy` is the clone's counterpart of `source`.
  void add(const void* source, void* copy) {
    WFD_CHECK_MSG(size_ < pairs_.size(), "raise CloneMap's capacity");
    pairs_[size_++] = {source, copy};
  }

  /// The counterpart recorded for `source`; null when there is none.
  template <typename T>
  [[nodiscard]] T* find(const T* source) const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (pairs_[i].first == source) return static_cast<T*>(pairs_[i].second);
    }
    return nullptr;
  }

 private:
  ChoiceSource* choices_;
  /// Inline: a clone is taken per explored run, and a scenario shares
  /// only a few objects this way.
  std::array<std::pair<const void*, void*>, 4> pairs_{};
  std::size_t size_ = 0;
};

}  // namespace wfd::sim
