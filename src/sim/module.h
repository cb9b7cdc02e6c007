// Module composition.
//
// The paper's constructions stack protocols: NBAC runs on top of QC plus
// FS (Fig. 4), QC on top of NBAC (Fig. 5), QC on top of consensus
// (Fig. 2), the Sigma extraction on top of n register instances (Fig. 1),
// FS is built from infinitely many NBAC instances, and register-based
// consensus uses n register instances. A ModuleHost hosts named modules
// inside one process. Messages are routed by module name. Inside the
// host, a module reaches another by its position (Module::index()) and
// learns of a result through a Hook, all within the host's atomic steps
// (DESIGN.md §12, composition).
//
// Two hosts exist (the sim-vs-runtime contract, DESIGN.md §11):
// sim::ModularProcess runs the modules as a process automaton inside the
// discrete-event simulator (and the explorer / model checker), and
// runtime::RuntimeProcess (src/runtime/host.h, where `runtime::Host`
// aliases ModuleHost) runs the *same* module objects as a thread over
// real channels with a monotonic clock. Module code must therefore only
// ever talk to the world through the ModuleHost surface below.
#pragma once

#include <cstdint>
#include <limits>
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

/// Where a module reports a result: the listening module's position in
/// the notifier's host (Module::index()) plus a tag the listener chose.
/// A position survives a copy of the host unchanged, so a copied
/// notifier reports to the listener's copy with nothing to re-point. A
/// default Hook names no listener.
struct Hook {
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::size_t listener = kNone;
  std::uint64_t tag = 0;

  [[nodiscard]] explicit operator bool() const { return listener != kNone; }
};

/// Implemented by a module that listens for results of type R. The
/// notifier calls it through its host, synchronously and inside the
/// step that produced the result.
template <typename R>
class Listener {
 public:
  virtual ~Listener() = default;
  /// The operation hooked with `tag` produced `result`.
  virtual void on_result(std::uint64_t tag, const R& result) = 0;
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
/// simulator per atomic step, the runtime per inbox batch and tick
/// deadline); modules only ever observe the calls.
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

  /// The module at position `index` of this host (Module::index()), as
  /// a T: how a module reaches another module of its host, such as a
  /// hook's listener or a module it stacks on. Asserts on a bad
  /// position or type.
  template <typename T>
  [[nodiscard]] T& module_at(std::size_t index) const;

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
  /// into `to`, by position: the module at each position is copied into
  /// the one `to` holds there (Module::copy_to), and `to`'s module list
  /// is resized to this one's. Then re-points each copy's host and
  /// (Module::relink) the objects outside the simulator it borrows.
  /// Positions and hooks need no re-pointing. False when some module is
  /// not cloneable or borrows something without a copy; `to` is then
  /// unusable.
  [[nodiscard]] bool copy_modules(ModuleHost& to, const CloneMap& map) const;

 private:
  struct BufferedMsg {
    ProcessId from;
    PayloadPtr inner;
  };

  void attach_module(std::unique_ptr<Module> mod, std::string module_name);
  void start_module(Module& m);

  std::vector<std::unique_ptr<Module>> modules_;
  /// Module positions by name, shared by a host and its copies until
  /// one of them adds a module (copy on write): a copy copies no map.
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

  /// Route this module's send/broadcast through `transport`, a module of
  /// the same host that implements ModuleTransport and has no transport
  /// itself, instead of the raw network.
  void set_transport(const Module& transport) {
    transport_ = transport.index();
  }

  /// Fold every member that influences this module's future behaviour
  /// into `enc` (see StateEncoder for the conventions). The host wraps
  /// the call in a per-module scope, so tags only need to be unique
  /// within the module. Modules that keep the default are opaque and
  /// disable fingerprint pruning for any scenario containing them.
  virtual void encode_state(StateEncoder& enc) const {
    enc.opaque("module");
  }

  /// Copies this module into `slot` for a copied host (sim/clone.h):
  /// an assignment when `slot` holds a module of the same type, else a
  /// fresh copy (copy_into). False — the default, like encode_state's
  /// opaque one — when this module cannot be copied. Positions and hooks
  /// copy as they are; the host sets the copy's host pointer, and
  /// relink() re-points the rest.
  [[nodiscard]] virtual bool copy_to(std::unique_ptr<Module>& slot) const {
    (void)slot;
    return false;
  }

  /// Re-points what a copy borrows from outside the simulator (such as
  /// a register History an invariant owns) through `map`. False when
  /// something has no copy there, which fails the copy. The default
  /// borrows nothing.
  [[nodiscard]] virtual bool relink(const CloneMap& map) {
    (void)map;
    return true;
  }

  /// This module's position in its host's module list (add order).
  [[nodiscard]] std::size_t index() const { return index_; }

  /// A hook naming this module as the listener, with `tag`.
  [[nodiscard]] Hook hook(std::uint64_t tag = 0) const {
    return Hook{index_, tag};
  }

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

  /// Report `result` to the listener `to` names (nothing when `to` is
  /// empty). A one-shot hook is cleared before the call, so the
  /// listener may arm a new one: notify(std::exchange(hook_, {}), r).
  template <typename R>
  void notify(const Hook& to, const R& result) const {
    if (!to) return;
    host().template module_at<Listener<R>>(to.listener)
        .on_result(to.tag, result);
  }

 private:
  friend class ModuleHost;
  ModuleHost* host_ = nullptr;
  std::size_t index_ = 0;
  std::string name_;
  const FdSource* fd_source_ = nullptr;
  std::size_t transport_ = Hook::kNone;  ///< A position, or kNone.
};

template <typename M>
M& ModuleHost::module(const std::string& module_name) const {
  Module* m = find_module(module_name);
  WFD_CHECK_MSG(m != nullptr, "module not found");
  auto* typed = dynamic_cast<M*>(m);
  WFD_CHECK_MSG(typed != nullptr, "module type mismatch");
  return *typed;
}

template <typename T>
T& ModuleHost::module_at(std::size_t index) const {
  WFD_CHECK_MSG(index < modules_.size(), "no module at this position");
  auto* typed = dynamic_cast<T*>(modules_[index].get());
  WFD_CHECK_MSG(typed != nullptr, "module type mismatch at this position");
  return *typed;
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

  /// False when a module is not cloneable or an instrument is set.
  [[nodiscard]] bool copy_to(std::unique_ptr<Process>& slot,
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
