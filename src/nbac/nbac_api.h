// Non-blocking atomic commit (Section 7): every process votes Yes or No
// and the processes agree on Commit or Abort. Commit requires that all
// processes voted Yes; Abort requires a No vote or a failure.
#pragma once

#include "sim/module.h"

namespace wfd::nbac {

enum class Vote { kYes, kNo };
enum class Decision { kCommit, kAbort };

/// A listener hooked to vote() implements sim::Listener<Decision>.
class NbacApi {
 public:
  virtual ~NbacApi() = default;

  /// Cast this process's vote; `done` hears the decision. May be called
  /// outside a step — the protocol starts at the host's next step.
  virtual void vote(Vote v, sim::Hook done = {}) = 0;

  [[nodiscard]] virtual bool decided() const = 0;

  /// Valid only when decided().
  [[nodiscard]] virtual Decision decision() const = 0;
};

}  // namespace wfd::nbac
