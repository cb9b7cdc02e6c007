// Common interface of all consensus implementations in the library
// (message-passing (Omega, Sigma) consensus and register-based
// consensus), so higher layers — quittable consensus, NBAC, the
// replicated state machine — can stack on either.
#pragma once

#include <cstdint>
#include <type_traits>

#include "sim/module.h"

namespace wfd::consensus {

/// The value recorded with a "decide" trace event: the decision itself
/// when the value type converts to an integer (so trace-level checkers —
/// explore::AgreementInvariant and friends — can compare decisions
/// without poking at module internals), 0 otherwise.
template <typename V>
[[nodiscard]] std::int64_t decide_event_value(const V& v) {
  if constexpr (std::is_convertible_v<V, std::int64_t>) {
    return static_cast<std::int64_t>(v);
  } else {
    (void)v;
    return 0;
  }
}

/// A module that decides; a listener hooked to propose() implements
/// sim::Listener<V>.
template <typename V>
class ConsensusApi {
 public:
  virtual ~ConsensusApi() = default;

  /// Propose a value; `done` hears the decision (within the step this
  /// process decides in, or at once when it already has). Each process
  /// proposes at most once.
  virtual void propose(const V& value, sim::Hook done = {}) = 0;

  [[nodiscard]] virtual bool decided() const = 0;

  /// Valid only when decided().
  [[nodiscard]] virtual const V& decision() const = 0;
};

}  // namespace wfd::consensus
