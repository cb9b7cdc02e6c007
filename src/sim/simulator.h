// The discrete-event simulator: owns the processes, the message buffer,
// the failure pattern, the failure-detector oracle and the scheduler, and
// drives the run one atomic step at a time. Runs are fully deterministic
// given (processes, pattern, oracle, scheduler, seed).
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/process_set.h"
#include "common/rng.h"
#include "common/types.h"
#include "fd/oracle.h"
#include "inject/fault_plan.h"
#include "sim/clone.h"
#include "sim/failure_pattern.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/scheduler.h"
#include "sim/trace.h"

namespace wfd::sim {

struct SimConfig {
  int n = 3;
  Time max_steps = 200000;
  std::uint64_t seed = 1;
  bool record_fd_samples = false;
};

struct RunResult {
  Time steps = 0;      ///< Global steps executed by this call.
  bool all_done = false;  ///< Every alive process reported done().
};

/// What the most recent step() did — consumed by the explorer's
/// happens-before bookkeeping, which must see every step, including
/// forced moves that never reach a ChoiceSource.
struct LastStep {
  ProcessId p = kNoProcess;       ///< Who acted; kNoProcess before step 1.
  std::uint64_t delivered = 0;    ///< Delivered message id; 0 for λ/start.
  bool was_start = false;         ///< True when the step was p's on_start.
  /// λ step whose process declared its tick a no-op (Process::tick_noop,
  /// evaluated as the step began); always false for starts/deliveries.
  bool tick_noop = false;
  /// What the step did; non-kDeliver steps are adversary moves (injected
  /// fault) during which no process code ran and `delivered` stays 0.
  StepChoice::Action action = StepChoice::Action::kDeliver;
  /// The message the adversary dropped or duplicated (kDrop/kDup).
  std::uint64_t fault_msg = 0;
  /// Fresh id the duplicate was enqueued under (kDup only).
  std::uint64_t dup_id = 0;
  /// Sender of the message the step consumed (delivered, dropped or
  /// duplicated); kNoProcess for λ/start/crash. Identifies the directed
  /// channel for channel-granular communication fairness.
  ProcessId from = kNoProcess;

  friend bool operator==(const LastStep&, const LastStep&) = default;
};

class Simulator {
 public:
  Simulator(SimConfig cfg, FailurePattern pattern,
            std::unique_ptr<fd::Oracle> oracle,
            std::unique_ptr<Scheduler> scheduler);

  /// Register process p (must be called for p = 0..n-1, in order, before
  /// the first step). Returns a reference to the constructed process.
  template <typename P, typename... Args>
  P& add_process(Args&&... args) {
    auto proc = std::make_unique<P>(std::forward<Args>(args)...);
    P& ref = *proc;
    procs_.push_back(ProcSlot{std::move(proc), std::nullopt});
    return ref;
  }

  /// Run until every alive process is done or max_steps is reached.
  RunResult run();

  /// Run at most `steps` further global steps (resumable).
  RunResult run_for(Time steps);

  /// Execute one global step. Returns false when the run has halted
  /// (max_steps reached, all alive processes done, or everyone crashed).
  bool step();

  /// True when step() would return false without stepping because the
  /// horizon is reached or every alive process is done.
  [[nodiscard]] bool halted() const {
    return now_ >= cfg_.max_steps || (halt_on_done_ && all_alive_done());
  }

  /// Copies this simulator, between steps, into `slot` (sim/clone.h):
  /// member by member into the simulator `slot` holds, whose queues,
  /// trace and process slots keep their storage, or into a fresh one.
  /// The copy continues exactly as this simulator would, asking
  /// `map.choices()` wherever this one asks its scheduler's and oracle's
  /// decision source, and shares only immutable payloads with it, so
  /// this simulator stays untouched while the copy runs. False when the
  /// oracle, the scheduler or a process is not cloneable; `slot` is then
  /// unusable.
  [[nodiscard]] bool copy_to(std::unique_ptr<Simulator>& slot,
                             const CloneMap& map) const;

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] int n() const { return cfg_.n; }
  [[nodiscard]] const SimConfig& config() const { return cfg_; }
  [[nodiscard]] const FailurePattern& pattern() const { return pattern_; }

  /// Install a fault ledger (fault injection). Call before the first
  /// step; the same FaultState must be handed (borrowed) to the
  /// scheduler's menu via ReplayScheduler::Options::faults.
  void adopt_faults(std::unique_ptr<inject::FaultState> faults) {
    faults_ = std::move(faults);
  }
  [[nodiscard]] const inject::FaultState* faults() const {
    return faults_.get();
  }

  /// A mutable process: the caller may change its state, so this drops
  /// the process's cached encoding (encode_state).
  Process& process(ProcessId p);
  [[nodiscard]] const Process& process(ProcessId p) const;
  Network& network() { return net_; }
  Trace& trace() { return trace_; }
  [[nodiscard]] const Trace& trace() const { return trace_; }
  fd::Oracle& oracle() { return *oracle_; }

  /// True iff every process that is alive now reports done().
  [[nodiscard]] bool all_alive_done() const;

  /// What the most recent successful step() did.
  [[nodiscard]] const LastStep& last_step() const { return last_step_; }

  /// Whether a lambda step of p taken right now would be inert (p has
  /// started and declares Process::tick_noop) — the end-of-run analogue
  /// of LastStep::tick_noop for hypothetical never-executed lambdas.
  [[nodiscard]] bool process_tick_noop(ProcessId p) const;

  /// Fold the complete system state — per-process encodings, the
  /// in-flight message multiset, pending crash deltas and the oracle's
  /// latched history — into `enc`, a root-scope encoder. Order-
  /// insensitive; see StateEncoder.
  ///
  /// Under the identity renaming each process's body and the in-flight
  /// multiset come from caches: a body is encoded once after each of
  /// its process's steps and kept, in copies too (copy_to), until the
  /// process steps again; the network keeps its in-flight fold current
  /// across sends and takes (Network::encode_state). A renaming rewrites
  /// every pid field, so a renamed encoder re-encodes everything. Builds
  /// without NDEBUG recompute every cached body on each read and check
  /// it.
  void encode_state(StateEncoder& enc) const;

  /// 64-bit digest of encode_state, or nullopt when any component is
  /// opaque (in which case pruning on it would be unsound).
  [[nodiscard]] std::optional<std::uint64_t> state_fingerprint() const;

  /// When false, run()/run_for()/step() keep going after every process
  /// reports done() — for fixed-horizon runs of service protocols
  /// (detector implementations, extractions) that never "finish".
  void set_halt_on_done(bool halt) { halt_on_done_ = halt; }

 private:
  friend class Context;

  /// An empty simulator for copy_to to fill.
  Simulator() : pattern_(1) {}

  /// A process and the encoding of its body: what
  /// `push_proc("proc", p); encode_state(enc); pop()` folds into a fresh
  /// identity-renaming encoder, kept from its first read until the
  /// process may change.
  struct ProcSlot {
    std::unique_ptr<Process> proc;
    mutable std::optional<StateEncoder::Partial> body;
  };

  void ensure_started();
  [[nodiscard]] StateEncoder::Partial encode_body(ProcessId p) const;
  [[nodiscard]] const StateEncoder::Partial& body(ProcessId p) const;

  SimConfig cfg_;
  FailurePattern pattern_;
  std::unique_ptr<inject::FaultState> faults_;
  std::unique_ptr<fd::Oracle> oracle_;
  std::unique_ptr<Scheduler> scheduler_;
  std::vector<ProcSlot> procs_;
  ProcessSet started_p_;  ///< Processes that took their first step.
  std::vector<Rng> proc_rng_;
  Network net_;
  Trace trace_;
  Time now_ = 0;
  bool started_ = false;
  bool halt_on_done_ = true;
  LastStep last_step_;
};

/// Per-step view a process gets of the world: its identity, the failure
/// detector value sampled in this step, and the ability to send messages
/// and record trace events. Valid only for the duration of the step.
class Context {
 public:
  [[nodiscard]] ProcessId self() const { return self_; }
  [[nodiscard]] int n() const { return sim_->n(); }
  [[nodiscard]] Time now() const { return sim_->now(); }

  /// The failure detector value seen in this step.
  [[nodiscard]] const fd::FdValue& fd() const { return fd_; }

  void send(ProcessId to, PayloadPtr payload);

  /// Send to every process (optionally including self). Self-delivery
  /// goes through the message buffer like any other message.
  void broadcast(PayloadPtr payload, bool include_self = true);

  /// Record a protocol-level trace event (e.g. a decision).
  void emit(const std::string& kind, std::int64_t value);

  /// Per-process deterministic randomness for protocol-internal choices.
  Rng& rng();

 private:
  friend class Simulator;
  Context(Simulator& sim, ProcessId self, fd::FdValue fd)
      : sim_(&sim), self_(self), fd_(std::move(fd)) {}

  Simulator* sim_;
  ProcessId self_;
  fd::FdValue fd_;
};

}  // namespace wfd::sim
