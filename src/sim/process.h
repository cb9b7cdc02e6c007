// The process automaton interface.
//
// A step follows the paper's atomic-step model: the process receives one
// message (possibly the empty message, i.e. a lambda step), queries its
// failure detector module, then sends messages and changes state. The
// simulator drives on_start exactly once (the process's first step, which
// receives no message) and on_step for every subsequent step.
#pragma once

#include <memory>

#include "sim/clone.h"
#include "sim/envelope.h"
#include "sim/state_encoder.h"

namespace wfd::sim {

class Context;

/// Hook for transport-level instrumentation: metadata attached to every
/// outgoing message and inspected on every incoming one. Used by the
/// Figure 1 extraction to track causal participation in register writes.
class TransportInstrument {
 public:
  virtual ~TransportInstrument() = default;

  /// Metadata to piggyback on a message being sent now (may be nullptr).
  virtual MessageMetaPtr outgoing_meta() = 0;

  /// Called for each received message carrying metadata.
  virtual void incoming_meta(ProcessId from, const MessageMeta& meta) = 0;
};

class Process {
 public:
  virtual ~Process() = default;

  /// The process's first step. Receives no message.
  virtual void on_start(Context& ctx) { (void)ctx; }

  /// One atomic step. msg == nullptr means the empty (lambda) message.
  virtual void on_step(Context& ctx, const Envelope* msg) = 0;

  /// True when the process has nothing left to do; the simulator halts a
  /// run when every alive process is done.
  [[nodiscard]] virtual bool done() const { return false; }

  /// True when a lambda step taken now would be a pure no-op, and would
  /// stay one across the deliveries the explorer may commute it with
  /// (see Module::tick_noop for the exact obligation). Consumed by the
  /// DPOR explorer's content-aware dependence; the conservative default
  /// never commutes lambda steps.
  [[nodiscard]] virtual bool tick_noop() const { return false; }

  /// Transport instrumentation (see TransportInstrument); may be nullptr.
  [[nodiscard]] virtual TransportInstrument* instrument() { return nullptr; }

  /// Fold everything that determines this process's future behaviour
  /// into `enc`. Processes that keep the default are opaque and disable
  /// fingerprint pruning (see StateEncoder::opaque).
  virtual void encode_state(StateEncoder& enc) const {
    enc.opaque("process");
  }

  /// Copies this process into `slot` for a copied simulator, between
  /// steps (sim/clone.h); false — the default — when it cannot be
  /// copied.
  [[nodiscard]] virtual bool copy_to(std::unique_ptr<Process>& slot,
                                     const CloneMap& map) const {
    (void)slot;
    (void)map;
    return false;
  }
};

}  // namespace wfd::sim
