// Module composition.
//
// The paper's constructions stack protocols: NBAC runs on top of QC plus
// FS (Fig. 4), QC on top of NBAC (Fig. 5), QC on top of consensus
// (Fig. 2), the Sigma extraction on top of n register instances (Fig. 1),
// FS is built from infinitely many NBAC instances, and register-based
// consensus uses n register instances. A ModuleHost hosts named modules
// inside one process; messages are routed by module name, and modules
// interact locally through direct method calls and completion callbacks,
// all within the host's atomic steps.
//
// Two hosts exist (the sim-vs-runtime contract, DESIGN.md §11):
// sim::ModularProcess runs the modules as a process automaton inside the
// discrete-event simulator (and the explorer / model checker), and
// runtime::RuntimeProcess (src/runtime/host.h, where `runtime::Host`
// aliases ModuleHost) runs the *same* module objects as a thread over
// real channels with a monotonic clock. Module code must therefore only
// ever talk to the world through the ModuleHost surface below.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "fd/values.h"
#include "sim/clone.h"
#include "sim/payload.h"
#include "sim/process.h"
#include "sim/state_encoder.h"

namespace wfd::sim {

class Module;
class ModularProcess;
struct ModuleEnvelope;

/// A local source of failure-detector values. Algorithm modules read
/// their detector through this indirection so the same algorithm can run
/// against an oracle history (the default: the value sampled by the host
/// in the current step) or against a detector *implementation* — another
/// module, e.g. the join-quorum Sigma — without any code change. This is
/// exactly the paper's notion of transforming one detector into another:
/// a transformation module implements FdSource.
class FdSource {
 public:
  virtual ~FdSource() = default;
  [[nodiscard]] virtual fd::FdValue fd_value() const = 0;
};

/// Interposes on a module's outgoing inter-process traffic. A transport
/// module (e.g. broadcast::QuasiReliableModule) implements this so that
/// algorithm modules written against reliable links can run unchanged
/// over lossy ones — the transport wraps each payload with whatever
/// sequencing/retransmission state it needs and delivers it to the
/// destination's same-named module on the far side.
class ModuleTransport {
 public:
  virtual ~ModuleTransport() = default;

  /// Ship `payload` to the module named `module` on process `to`.
  virtual void module_send(const std::string& module, ProcessId to,
                           PayloadPtr payload) = 0;
};

/// Everything a Module needs from whatever is hosting it — the seam that
/// lets one module codebase run under both the simulator/explorer and
/// the concurrent runtime (aliased as runtime::Host there).
///
/// The surface splits in two:
///
///  * the *module container* (add_module / find_module / module) is
///    concrete and shared: dynamic instance creation ("nbac/7",
///    consensus round k) and pre-existence message buffering behave
///    identically under every host;
///
///  * the *environment* (identity, time, detector sample, sends, event
///    emission, randomness) is virtual: the simulator answers from the
///    current step's Context, the runtime from real clocks, channels and
///    its configured implementable detector.
///
/// Delivery and tick *scheduling* deliberately stay outside this
/// interface: the host decides when on_message/on_tick run (the
/// simulator per atomic step, the runtime per inbox batch and timer-
/// wheel deadline); modules only ever observe the calls.
class ModuleHost {
 public:
  virtual ~ModuleHost();

  /// Add a module under a unique name. If the host is mid-run the module
  /// is started immediately and receives any messages that arrived for
  /// its name before it existed (instances created on demand, e.g.
  /// "nbac/7", rely on this).
  template <typename M, typename... Args>
  M& add_module(std::string module_name, Args&&... args) {
    WFD_CHECK_MSG(find_module(module_name) == nullptr,
                  "duplicate module name");
    auto mod = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *mod;
    attach_module(std::move(mod), std::move(module_name));
    return ref;
  }

  /// Find a module by name; nullptr when absent.
  [[nodiscard]] Module* find_module(const std::string& module_name) const;

  /// Find and downcast; asserts on absence or type mismatch.
  template <typename M>
  [[nodiscard]] M& module(const std::string& module_name) const;

  /// The module at position `index` of this host (Module::index()).
  [[nodiscard]] Module& module_at(std::size_t index) const;

  /// This host's module at the position `m` holds in host `from`: how a
  /// cloned module re-points a same-host module reference (see
  /// Module::relink). Null when `m` is not hosted by `from` or the copy
  /// is not an M.
  template <typename M>
  [[nodiscard]] M* counterpart(const ModuleHost& from, const M* m) const;

  // --- Environment surface (what Module's protected helpers consume).

  [[nodiscard]] virtual ProcessId self() const = 0;
  [[nodiscard]] virtual int n() const = 0;

  /// The host's notion of time, in host time units: the simulator's
  /// global step index, the runtime's milliseconds since cluster start.
  /// Monotone non-decreasing; modules must treat the unit as opaque and
  /// take any absolute scale (timeouts, periods) from their Options.
  [[nodiscard]] virtual Time now() const = 0;

  /// The failure-detector value a module without an FdSource acts on.
  /// The reference is valid for the duration of the current
  /// on_start/on_message/on_tick call.
  [[nodiscard]] virtual const fd::FdValue& fd_sample() const = 0;

  /// Ship `payload` to the same-named module of process `to` (the host
  /// wraps it in a ModuleEnvelope on the wire).
  virtual void module_out(const std::string& module, ProcessId to,
                          PayloadPtr payload) = 0;

  /// Ship `payload` to the same-named module of every process
  /// (optionally including self; self-delivery goes through the host's
  /// delivery machinery like any other message, never inline).
  virtual void module_broadcast(const std::string& module, PayloadPtr payload,
                                bool include_self) = 0;

  /// Record a protocol-level event (e.g. a decision): the simulator's
  /// Trace, the runtime's per-process event log.
  virtual void emit_event(const std::string& kind, std::int64_t value) = 0;

  /// Per-process deterministic randomness for protocol-internal choices.
  [[nodiscard]] virtual Rng& host_rng() = 0;

 protected:
  // --- Shared container machinery for concrete hosts.

  /// Start every module added so far (modules added *while* starting are
  /// started inline by add_module), then tick all — the host's first
  /// step. Idempotent per host lifetime.
  void start_modules();

  /// Route one unwrapped envelope to its module (buffering it when the
  /// module does not exist yet).
  void dispatch_module_msg(ProcessId from, const ModuleEnvelope& env);

  /// Tick every module, by index: modules added during the sweep are
  /// ticked too, which is harmless (their on_tick sees a consistent
  /// started state).
  void tick_modules();

  [[nodiscard]] bool modules_started() const { return started_; }
  [[nodiscard]] bool modules_done() const;
  [[nodiscard]] bool modules_tick_noop() const;

  /// Composes the per-module encodings (each in a scope keyed by the
  /// module's name) plus the pre-existence message buffer.
  void encode_modules(StateEncoder& enc) const;

  /// Copies every module, the pre-existence buffer and the started flag
  /// into `to`, a host without modules, then re-points each copy's host,
  /// transport and (Module::relink) everything else it borrows. False
  /// when some module is not cloneable or borrows something without a
  /// counterpart; `to` is then unusable.
  [[nodiscard]] bool clone_modules(ModuleHost& to, const CloneMap& map) const;

 private:
  struct BufferedMsg {
    ProcessId from;
    PayloadPtr inner;
  };

  void attach_module(std::unique_ptr<Module> mod, std::string module_name);
  void start_module(Module& m);

  std::vector<std::unique_ptr<Module>> modules_;
  /// Module positions by name, shared by a host and its clones until
  /// one of them adds a module (copy on write): a clone copies no map.
  std::shared_ptr<std::map<std::string, std::size_t>> by_name_ =
      std::make_shared<std::map<std::string, std::size_t>>();
  std::map<std::string, std::vector<BufferedMsg>> undelivered_;
  bool started_ = false;
};

/// A protocol component living inside a ModuleHost. The protected
/// helpers (send, fd, ...) are valid only while the host is delivering a
/// message or ticking, which is the only time module code runs.
class Module {
 public:
  virtual ~Module() = default;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Called once, during the host's first step (or immediately when the
  /// module is added mid-run).
  virtual void on_start() {}

  /// A message from the same-named module of process `from`.
  virtual void on_message(ProcessId from, const Payload& msg) = 0;

  /// Called on every step of the host (use for timeouts/retries).
  virtual void on_tick() {}

  /// True when on_tick is currently a pure no-op *and stays one across
  /// the deliveries the explorer may commute it with*: the returned
  /// value must depend only on state that no tick_insensitive message
  /// handler writes, and while it is true, on_tick must neither act nor
  /// read anything such a handler writes. The explorer uses this (via
  /// Process::tick_noop) to commute inert lambda steps with
  /// tick-insensitive deliveries; modules with a live tick keep the
  /// conservative default.
  [[nodiscard]] virtual bool tick_noop() const { return false; }

  /// False while this module still has work that should keep the run
  /// alive. Service modules (servers, detector implementations) keep the
  /// default `true` so they never block run completion.
  [[nodiscard]] virtual bool done() const { return true; }

  /// Route this module's detector reads through `src` instead of the
  /// host's sample (pass nullptr to restore the host's detector).
  void set_fd_source(const FdSource* src) { fd_source_ = src; }

  /// Route this module's send/broadcast through `t` instead of the raw
  /// network (pass nullptr to restore direct sends). The transport must
  /// live on the same host and must not itself have a transport set.
  void set_transport(ModuleTransport* t) { transport_ = t; }

  /// Fold every member that influences this module's future behaviour
  /// into `enc` (see StateEncoder for the conventions). The host wraps
  /// the call in a per-module scope, so tags only need to be unique
  /// within the module. Modules that keep the default are opaque and
  /// disable fingerprint pruning for any scenario containing them.
  virtual void encode_state(StateEncoder& enc) const {
    enc.opaque("module");
  }

  /// A member-wise copy for a cloned host (sim/clone.h), or null — the
  /// default, like encode_state's opaque one — when this module cannot
  /// be copied; a module holding a callback it cannot re-point must
  /// return null. The copy keeps this module's pointers until the host
  /// re-points them: host and transport itself, the rest via relink().
  [[nodiscard]] virtual std::unique_ptr<Module> clone() const {
    return nullptr;
  }

  /// Re-points what a fresh copy borrows, once every module of its host
  /// has been copied: a module of the source host `from` through
  /// host().counterpart(from, ...), an object outside the simulator
  /// through `map`. False when something has no counterpart, which
  /// fails the clone. The default borrows nothing.
  [[nodiscard]] virtual bool relink(const ModuleHost& from,
                                    const CloneMap& map) {
    (void)from;
    (void)map;
    return true;
  }

  /// This module's position in its host's module list (add order).
  [[nodiscard]] std::size_t index() const { return index_; }

 protected:
  /// The failure-detector value this module should act on in this step:
  /// the configured FdSource if any, else the host's sample.
  [[nodiscard]] fd::FdValue detector() const;

  [[nodiscard]] ProcessId self() const;
  [[nodiscard]] int n() const;
  [[nodiscard]] Time now() const;
  [[nodiscard]] const fd::FdValue& fd() const;
  void send(ProcessId to, PayloadPtr payload);
  void broadcast(PayloadPtr payload, bool include_self = true);
  void emit(const std::string& kind, std::int64_t value);
  Rng& rng();
  [[nodiscard]] ModuleHost& host() const;

 private:
  friend class ModuleHost;
  ModuleHost* host_ = nullptr;
  std::size_t index_ = 0;
  std::string name_;
  const FdSource* fd_source_ = nullptr;
  ModuleTransport* transport_ = nullptr;
};

template <typename M>
M& ModuleHost::module(const std::string& module_name) const {
  Module* m = find_module(module_name);
  WFD_CHECK_MSG(m != nullptr, "module not found");
  auto* typed = dynamic_cast<M*>(m);
  WFD_CHECK_MSG(typed != nullptr, "module type mismatch");
  return *typed;
}

template <typename M>
M* ModuleHost::counterpart(const ModuleHost& from, const M* m) const {
  const Module* base = m;
  if (base == nullptr || base->host_ != &from ||
      base->index_ >= modules_.size()) {
    return nullptr;
  }
  return dynamic_cast<M*>(modules_[base->index_].get());
}

/// Wire format: every inter-process message of a module is wrapped with
/// the module's name so the receiving host can route it.
///
/// The identity/commutativity contract forwards to the inner payload,
/// with one refinement: two envelopes commute only when they address the
/// *same* module. Deliveries to different modules of one host never
/// commute — each module's handler runs relative to its own tick
/// sequence, so a cross-module swap can shift a tick-gated threshold
/// (e.g. an NBAC vote completing while the inner consensus is mid-round)
/// by a step, and the per-module contracts cannot see that interaction.
struct ModuleEnvelope final : Payload {
  ModuleEnvelope(std::string module_name, PayloadPtr inner_payload)
      : module(std::move(module_name)), inner(std::move(inner_payload)) {}
  std::string module;
  PayloadPtr inner;

  void encode_state(StateEncoder& enc) const override {
    enc.field("module", module);
    enc.push("inner");
    inner->encode_state(enc);
    enc.pop();
  }

  /// Classified exactly when the inner payload is: the envelope itself
  /// adds routing, not semantics, so the audit obligation stays with the
  /// protocol payload.
  [[nodiscard]] std::string_view kind() const override {
    return inner->kind();
  }

  [[nodiscard]] bool commutes_with(const Payload& other) const override {
    const auto* o = payload_cast<ModuleEnvelope>(other);
    return o != nullptr && module == o->module &&
           inner->commutes_with(*o->inner);
  }

  /// Tick insensitivity is a property of the addressed handler alone, so
  /// it forwards unconditionally (the host's per-module routing adds no
  /// time reads).
  [[nodiscard]] bool tick_insensitive() const override {
    return inner->tick_insensitive();
  }

  [[nodiscard]] std::string identity() const override {
    return module + ":" + inner->identity();
  }
};

/// Merges two FdSources into a tuple detector (e.g. heartbeat Omega +
/// join-quorum Sigma => an implemented (Omega, Sigma) with no oracle).
/// Components of `a` win where both are present.
class MergedFdSource : public FdSource {
 public:
  MergedFdSource(const FdSource* a, const FdSource* b) : a_(a), b_(b) {
    WFD_CHECK(a != nullptr && b != nullptr);
  }

  [[nodiscard]] fd::FdValue fd_value() const override {
    fd::FdValue v = a_->fd_value();
    const fd::FdValue w = b_->fd_value();
    if (!v.omega && w.omega) v.omega = w.omega;
    if (!v.sigma && w.sigma) v.sigma = w.sigma;
    if (!v.fs && w.fs) v.fs = w.fs;
    if (!v.psi && w.psi) v.psi = w.psi;
    if (!v.suspected && w.suspected) v.suspected = w.suspected;
    return v;
  }

 private:
  const FdSource* a_;
  const FdSource* b_;
};

/// The simulator's host: a process automaton whose atomic steps deliver
/// at most one module message and then tick every module, with the
/// environment answered from the current step's Context.
class ModularProcess : public Process, public ModuleHost {
 public:
  void on_start(Context& ctx) override;
  void on_step(Context& ctx, const Envelope* msg) override;
  [[nodiscard]] bool done() const override;

  /// A host's step ticks every module, so the host's lambda step is
  /// inert exactly when every hosted module's tick is a declared no-op.
  [[nodiscard]] bool tick_noop() const override;

  /// The current step's context; valid only while the host is stepping.
  [[nodiscard]] Context& ctx() const {
    WFD_CHECK_MSG(current_ != nullptr, "module code ran outside a step");
    return *current_;
  }

  void set_instrument(TransportInstrument* ins) { instrument_ = ins; }

  /// Null when a module is not cloneable or an instrument is set.
  [[nodiscard]] std::unique_ptr<Process> clone(
      const CloneMap& map) const override;
  [[nodiscard]] TransportInstrument* instrument() override {
    return instrument_;
  }

  /// Composes the per-module encodings (each in a scope keyed by the
  /// module's name) plus the pre-existence message buffer. Opaque iff
  /// any hosted module is.
  void encode_state(StateEncoder& enc) const override;

  // --- ModuleHost environment surface, answered from the step Context.
  [[nodiscard]] ProcessId self() const override;
  [[nodiscard]] int n() const override;
  [[nodiscard]] Time now() const override;
  [[nodiscard]] const fd::FdValue& fd_sample() const override;
  void module_out(const std::string& module, ProcessId to,
                  PayloadPtr payload) override;
  void module_broadcast(const std::string& module, PayloadPtr payload,
                        bool include_self) override;
  void emit_event(const std::string& kind, std::int64_t value) override;
  [[nodiscard]] Rng& host_rng() override;

 private:
  Context* current_ = nullptr;
  TransportInstrument* instrument_ = nullptr;
};

}  // namespace wfd::sim
