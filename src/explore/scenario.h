// Scenario factory: builds fresh, fully choice-driven instances of the
// library's canonical problems so the explorer, the campaign driver and
// the replay machinery all run the SAME construction — a run is a pure
// function of its decision sequence.
//
// Every source of nondeterminism is routed through the ChoiceSource
// handed to build(): the schedule (ReplayScheduler), the detector
// history (ChoiceOracle) and, when crash times are not pinned, the
// failure pattern itself (kEnvironment choices over a small menu of
// crash times).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "explore/property.h"
#include "sim/choice.h"
#include "sim/simulator.h"

namespace wfd::explore {

struct ScenarioOptions {
  /// consensus | consensus-bug | consensus-crash-bug | qc | nbac | sigma |
  /// register | register-regular | abcast | rb.
  std::string problem = "consensus";
  int n = 3;
  int crashes = 0;
  /// "script": crashes happen at pre-scripted times (crash_time below, or
  /// a kEnvironment menu). "explore": crash timing is a per-step schedule
  /// choice — `crashes` becomes the injection budget, the scripted
  /// pattern stays empty, and the pattern is reconstructed on the fly as
  /// the explorer injects (see src/inject/fault_plan.h).
  std::string crash_mode = "script";
  /// Per-directed-link injected-loss budgets (0 = reliable links). The
  /// register problems route their traffic through the quasi-reliable
  /// retransmission wrapper when either is nonzero.
  int loss_drops = 0;
  int loss_dups = 0;
  /// Adversarial detector: every query is a fresh choice over the menus
  /// legal for the *evolving* pattern (inject/fd_adversary.h). Forces
  /// per-query choice; requires stabilization == kNever.
  bool fd_adversarial = false;
  /// kNever: crash times are exploration choice points (a small menu of
  /// times within the horizon). Otherwise faulty process i crashes at
  /// crash_time * (i + 1).
  Time crash_time = kNever;
  /// Horizon; doubles as the exploration depth bound.
  Time max_steps = 40;
  std::uint64_t seed = 1;
  /// ChoiceOracle stabilization time (kNever = adversarial throughout;
  /// finite values make liveness meaningful for campaign runs).
  Time stabilization = kNever;
  /// false: one static detector history per run instead of per-query
  /// choices — a much smaller tree.
  bool fd_per_query = true;
  /// For nbac: the process voting No, or kNoProcess for unanimous Yes.
  ProcessId nbac_no_voter = kNoProcess;
  /// For register problems: operations per client (process 0 writes,
  /// everyone else reads; deterministic workloads so the state stays
  /// fingerprintable).
  int reg_ops = 2;
  /// How many reading clients (processes 1..reg_readers); the remaining
  /// processes are pure replicas. 0 = every non-writer reads. One writer
  /// plus one reader is the classic atomicity scenario and keeps the
  /// n=3 tree small enough to exhaust.
  int reg_readers = 0;
  /// For abcast: how many processes broadcast one message each.
  int abcast_senders = 2;
  /// ReplayScheduler::Options::oldest_per_channel (per-channel FIFO
  /// deliveries); --all-pending turns it off.
  bool oldest_per_channel = true;
  /// Liveness clause to check by fair-cycle search over the explored
  /// state graph (empty = bounded safety checking only). Clause names
  /// and per-problem availability: ScenarioFactory::liveness_clauses.
  /// Liveness mode constrains the rest of the scenario (static converged
  /// detector histories, no scripted crashes) — see validate() — so that
  /// every infinite unrolling of a graph cycle is a run of the modelled
  /// system under a *legal* detector-history limit.
  std::string liveness;
};

/// One built instance: a simulator plus the properties to check on it.
struct Scenario {
  std::unique_ptr<sim::Simulator> sim;
  std::vector<std::unique_ptr<Invariant>> invariants;
  std::vector<std::unique_ptr<EventualProperty>> eventuals;
  /// Non-empty iff ScenarioOptions::liveness named a clause; holds
  /// exactly that clause, wired to this instance's modules.
  std::vector<std::unique_ptr<LivenessClause>> liveness;
};

/// The state digest: the simulator's complete encoded state plus every
/// invariant's carried history, with process identities read through
/// `renaming` when given (sim::StateEncoder). nullopt when any component
/// is opaque. Liveness checking keys graph nodes on the plain digest
/// (liveness forbids --symmetry: per-process fairness bookkeeping does
/// not survive renaming); the explorer's symmetry reduction takes the
/// minimum over its renaming group.
[[nodiscard]] std::optional<std::uint64_t> scenario_fingerprint(
    const Scenario& sc, const std::vector<ProcessId>* renaming = nullptr);

/// A deep copy of `sc` between steps that continues exactly as `sc`
/// would, asking `choices` at every choice point (sim/clone.h); `sc`
/// stays untouched while the copy runs. nullopt when any part — a
/// process, module, oracle, scheduler, invariant, eventual property or
/// liveness clause — is not cloneable.
[[nodiscard]] std::optional<Scenario> clone_scenario(
    const Scenario& sc, sim::ChoiceSource& choices);

/// Checks every invariant of `sc` against the run so far, in order, and
/// returns the first violation; later invariants are not checked, so
/// their cursors stay where they were (Invariant::check).
[[nodiscard]] std::optional<Violation> check_invariants(Scenario& sc);

/// Builds a fresh instance whose nondeterminism is drawn from the given
/// source. Copyable and cheap; the explorer re-invokes it per run.
using ScenarioBuilder = std::function<Scenario(sim::ChoiceSource&)>;

class ScenarioFactory {
 public:
  explicit ScenarioFactory(ScenarioOptions opt);

  [[nodiscard]] const ScenarioOptions& options() const { return opt_; }

  /// Every problem build() understands. Each runs in every wfd_check
  /// mode (--exhaustive, --campaign, --replay).
  [[nodiscard]] static const std::vector<std::string>& problems();

  /// Empty string when the options are valid, else a diagnosis.
  [[nodiscard]] static std::string validate(const ScenarioOptions& opt);

  /// True when the enabled detector components read the *evolving*
  /// failure pattern mid-run (an FS or Psi component consults
  /// failure_by(t)): an injected crash is then observable by every
  /// process through its next query, and the explorer must keep crash
  /// labels dependent with everything. Omega/Sigma menus — static or
  /// per-query, adversarial included — never re-read the pattern before
  /// stabilization, and exploration requires stabilization == kNever.
  [[nodiscard]] static bool pattern_sensitive(const ScenarioOptions& opt);

  /// The liveness clause names available for `problem` (possibly empty).
  /// "termination" covers consensus/QC/NBAC decisions and rb delivery
  /// completion uniformly; "leadership" is the Omega eventual-leadership
  /// goal on the (Omega, Sigma) consensus protocols; "fd-completeness"
  /// checks the implemented heartbeat Omega's strong completeness.
  [[nodiscard]] static std::vector<std::string> liveness_clauses(
      const std::string& problem);

  /// Interchangeable-process classes for symmetry reduction: renaming
  /// processes within a class maps runs to runs (identical modules,
  /// identical initial values, symmetric detector menus and fault
  /// budgets). Empty when the scenario is not verified symmetric —
  /// scripted crashes pin concrete processes, a finite stabilization
  /// time makes the oracle's limit values renaming-sensitive, and some
  /// problems (distinct broadcast values, pid-ordered leader election)
  /// have no interchangeable processes at all. Singleton classes are
  /// omitted; a non-empty result always licenses a nontrivial renaming.
  [[nodiscard]] static std::vector<std::vector<ProcessId>> symmetry_classes(
      const ScenarioOptions& opt);

  [[nodiscard]] Scenario build(sim::ChoiceSource& choices) const;

  /// The build() entry point as a value (captures the options by copy).
  [[nodiscard]] ScenarioBuilder builder() const;

 private:
  [[nodiscard]] sim::FailurePattern make_pattern(
      sim::ChoiceSource& choices) const;

  ScenarioOptions opt_;
};

}  // namespace wfd::explore
