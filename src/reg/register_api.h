// The read/write interface of the library's registers (ABD over Sigma
// or majorities, and the consensus-backed SMR register), so the layers
// above registers run over any of them.
#pragma once

#include "sim/module.h"

namespace wfd::reg {

/// One operation at a time per register module. A listener hooked to
/// write() or read() implements sim::Listener<V> and hears the written
/// or the read value. Both may be called outside a step; the protocol
/// starts at the host's next step.
template <typename V>
class RegisterApi {
 public:
  virtual ~RegisterApi() = default;
  virtual void write(const V& v, sim::Hook done = {}) = 0;
  virtual void read(sim::Hook done = {}) = 0;
  /// True while an operation is in flight.
  [[nodiscard]] virtual bool busy() const = 0;
};

}  // namespace wfd::reg
