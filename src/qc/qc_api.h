// Quittable consensus (Section 5): like consensus, except that when a
// failure has occurred the processes may instead agree on the special
// value Q ("quit"). Validity: a 0/1 (or, in the multivalued version, any
// proposed value) decision must have been proposed; Q may be returned
// only if a failure previously occurred — quitting is never inevitable,
// only an option.
#pragma once

#include "common/check.h"
#include "sim/module.h"

namespace wfd::qc {

/// Outcome of a QC instance: either a regular decision carrying a value,
/// or Q.
template <typename V>
struct QcResult {
  bool quit = false;
  V value{};  ///< Valid when !quit.

  static QcResult quit_result() {
    QcResult r;
    r.quit = true;
    return r;
  }
  static QcResult value_result(V v) {
    QcResult r;
    r.value = std::move(v);
    return r;
  }
  friend bool operator==(const QcResult&, const QcResult&) = default;
};

/// A listener hooked to propose() implements
/// sim::Listener<QcResult<V>>.
template <typename V>
class QcApi {
 public:
  virtual ~QcApi() = default;

  /// Propose a value; `done` hears the result. May be called outside a
  /// step — the protocol starts at the host's next step.
  virtual void propose(const V& value, sim::Hook done = {}) = 0;

  [[nodiscard]] virtual bool decided() const = 0;

  /// Valid only when decided().
  [[nodiscard]] virtual const QcResult<V>& result() const = 0;
};

}  // namespace wfd::qc
