// Property checkers: machine-checkable renderings of the specification
// clauses, evaluated against a live run's Trace and failure pattern.
//
// Invariants are safety clauses: once false they stay false, so the
// explorer checks them after every step and stops a branch at the first
// violation. EventualProperties are liveness clauses; they are only
// meaningful on runs that were given a fair schedule and a stabilizing
// detector history, so the campaign driver checks them at the end of
// randomized runs and reports failures as suspects (a bounded run that
// merely ran out of horizon is not a counterexample to "eventually").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "broadcast/app_message.h"
#include "explore/types.h"
#include "nbac/nbac_api.h"
#include "reg/linearizability.h"
#include "reg/register_client.h"
#include "sim/clone.h"
#include "sim/simulator.h"
#include "sim/state_encoder.h"

namespace wfd::explore {

/// A safety clause, checked incrementally as a run grows.
class Invariant {
 public:
  virtual ~Invariant() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Inspect the run so far; nullopt = no violation. Called after every
  /// step with the same simulator (monotonically growing trace), so
  /// implementations keep a cursor instead of rescanning. A run that
  /// starts from a restored checkpoint goes on with the copy taken
  /// there, whose cursor already covers the restored prefix.
  virtual std::optional<Violation> check(const sim::Simulator& sim) = 0;
  /// Fold whatever run-history state this invariant judges future steps
  /// by into the explorer's fingerprint. State that lives only in an
  /// invariant (e.g. the values past reads returned) is part of "the
  /// future" as far as violations go, so omitting it here would let the
  /// explorer prune branches whose pasts are distinguishable. The
  /// default is empty: correct for invariants whose verdicts depend only
  /// on simulator state the modules already encode.
  virtual void encode_state(sim::StateEncoder& enc) const { (void)enc; }
  /// Copies this invariant, cursor included, into `slot` for a copied
  /// scenario (sim/clone.h); false — the default — when the invariant
  /// cannot be copied. An invariant owning an object that modules borrow
  /// records the copy's object in `map`, so the copied modules re-point
  /// to it.
  [[nodiscard]] virtual bool copy_to(std::unique_ptr<Invariant>& slot,
                                     sim::CloneMap& map) const {
    (void)slot;
    (void)map;
    return false;
  }
};

/// A liveness clause, checked once at the end of a fair, stabilized run.
class EventualProperty {
 public:
  virtual ~EventualProperty() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual std::optional<Violation> check_final(const sim::Simulator& sim) = 0;
  /// Copies this property into `slot` for a copied scenario.
  virtual void copy_to(std::unique_ptr<EventualProperty>& slot) const = 0;
};

/// A liveness clause for fair-cycle checking over the explored state
/// graph, interpreted as the omega-regular property "eventually goal
/// holds forever" (<>[]goal). A fair lasso whose loop visits at least
/// one goal-false state refutes it; for absorbing goals (termination:
/// once every module is done it stays done) <>[]goal coincides with
/// <>goal. Contrast EventualProperty: that one is a heuristic end-of-run
/// *suspect* check for randomized campaigns, while a LivenessClause
/// feeds the explorer's SCC search and yields genuine counterexamples.
///
/// Contract: goal() must be a pure function of the state the explorer
/// fingerprints (module state, in-flight messages, the oracle's latched
/// history, the failure pattern) — never of the trace, absolute time or
/// any history the fingerprint discards — so that a goal bit can be
/// attached to a graph node once and reused for every path reaching it.
class LivenessClause {
 public:
  virtual ~LivenessClause() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual bool goal(const sim::Simulator& sim) const = 0;
  /// Copies this clause into `slot` for a copied scenario.
  virtual void copy_to(std::unique_ptr<LivenessClause>& slot) const = 0;
};

/// Termination (consensus "decide", QC/NBAC decisions, rb delivery
/// completion — uniformly): every currently-alive process's protocol
/// stack reports done(). Modules latch their decisions, so the goal is
/// absorbing and <>[]goal degenerates to plain eventual termination.
class TerminationClause : public LivenessClause {
 public:
  [[nodiscard]] std::string name() const override { return "termination"; }
  [[nodiscard]] bool goal(const sim::Simulator& sim) const override {
    return sim.all_alive_done();
  }
  void copy_to(std::unique_ptr<LivenessClause>& slot) const override {
    sim::copy_into(*this, slot);
  }
};

/// Omega eventual leadership at the protocol level: eventually, forever,
/// some alive process is actively leading (has an open round) or the
/// run has terminated. A fair loop in which no leader ever has a round
/// open and nobody decides is exactly the "Omega never stabilizes into
/// an acting leader" failure the paper's liveness argument excludes.
/// The scenario wires each process's consensus module at build().
class LeadershipClause : public LivenessClause {
 public:
  /// `position`: where every process hosts its (Omega, Sigma) consensus
  /// module, read through is_leading().
  explicit LeadershipClause(std::size_t position) : position_(position) {}
  [[nodiscard]] std::string name() const override { return "leadership"; }
  [[nodiscard]] bool goal(const sim::Simulator& sim) const override;
  void copy_to(std::unique_ptr<LivenessClause>& slot) const override {
    sim::copy_into(*this, slot);
  }

 private:
  std::size_t position_;
};

/// Strong completeness of an *implemented* detector (heartbeat Omega):
/// eventually, forever, no alive process trusts a crashed one — its
/// emitted leader is alive and its suspected set covers every crashed
/// process. Both read module state the fingerprint folds.
class FdCompletenessClause : public LivenessClause {
 public:
  /// `position`: where every process hosts its HeartbeatOmegaModule.
  explicit FdCompletenessClause(std::size_t position) : position_(position) {}
  [[nodiscard]] std::string name() const override { return "fd-completeness"; }
  [[nodiscard]] bool goal(const sim::Simulator& sim) const override;
  void copy_to(std::unique_ptr<LivenessClause>& slot) const override {
    sim::copy_into(*this, slot);
  }

 private:
  std::size_t position_;
};

/// Agreement: all trace events of `kind` carry the same value (covers
/// consensus "decide", QC "qc-decide" with Q encoded as -1, and NBAC
/// "nbac-decide").
class AgreementInvariant : public Invariant {
 public:
  explicit AgreementInvariant(std::string kind) : kind_(std::move(kind)) {}
  [[nodiscard]] std::string name() const override {
    return "agreement(" + kind_ + ")";
  }
  std::optional<Violation> check(const sim::Simulator& sim) override;
  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("have-first", have_first_);
    if (have_first_) enc.field("first-value", first_value_);
  }
  [[nodiscard]] bool copy_to(std::unique_ptr<Invariant>& slot,
                             sim::CloneMap&) const override {
    sim::copy_into(*this, slot);
    return true;
  }

 private:
  std::string kind_;
  std::size_t cursor_ = 0;
  bool have_first_ = false;
  ProcessId first_p_ = kNoProcess;
  std::int64_t first_value_ = 0;
};

/// Validity: every event of `kind` carries one of the allowed values
/// (for consensus: the proposals; for QC: proposals plus Q).
class ValidityInvariant : public Invariant {
 public:
  ValidityInvariant(std::string kind, std::vector<std::int64_t> allowed)
      : kind_(std::move(kind)), allowed_(std::move(allowed)) {}
  [[nodiscard]] std::string name() const override {
    return "validity(" + kind_ + ")";
  }
  std::optional<Violation> check(const sim::Simulator& sim) override;
  [[nodiscard]] bool copy_to(std::unique_ptr<Invariant>& slot,
                             sim::CloneMap&) const override {
    sim::copy_into(*this, slot);
    return true;
  }

 private:
  std::string kind_;
  std::vector<std::int64_t> allowed_;
  std::size_t cursor_ = 0;
};

/// QC quit-validity: a Q decision ("qc-decide" = -1) at time t is legal
/// only if a failure occurred by t.
class QuitValidityInvariant : public Invariant {
 public:
  [[nodiscard]] std::string name() const override { return "quit-validity"; }
  std::optional<Violation> check(const sim::Simulator& sim) override;
  [[nodiscard]] bool copy_to(std::unique_ptr<Invariant>& slot,
                             sim::CloneMap&) const override {
    sim::copy_into(*this, slot);
    return true;
  }

 private:
  std::size_t cursor_ = 0;
};

/// NBAC validity: Commit requires a unanimous Yes vote; Abort requires a
/// No vote or a failure in the pattern.
class NbacValidityInvariant : public Invariant {
 public:
  explicit NbacValidityInvariant(std::vector<nbac::Vote> votes)
      : votes_(std::move(votes)) {}
  [[nodiscard]] std::string name() const override { return "nbac-validity"; }
  std::optional<Violation> check(const sim::Simulator& sim) override;
  [[nodiscard]] bool copy_to(std::unique_ptr<Invariant>& slot,
                             sim::CloneMap&) const override {
    sim::copy_into(*this, slot);
    return true;
  }

 private:
  std::vector<nbac::Vote> votes_;
  std::size_t cursor_ = 0;
};

/// Sigma intersection: every two quorums ever output — across all
/// processes and times, including quorums inside Psi's (Omega, Sigma)
/// mode — intersect. Requires SimConfig::record_fd_samples.
class SigmaIntersectionInvariant : public Invariant {
 public:
  [[nodiscard]] std::string name() const override {
    return "sigma-intersection";
  }
  std::optional<Violation> check(const sim::Simulator& sim) override;
  void encode_state(sim::StateEncoder& enc) const override {
    for (const std::uint64_t mask : seen_) {
      sim::StateEncoder sub = enc.child();
      // Fold the quorum as a (renamable) process set, not a raw mask.
      sub.field("mask", ProcessSet::from_raw(mask));
      enc.merge("quorum", sub);
    }
  }
  [[nodiscard]] bool copy_to(std::unique_ptr<Invariant>& slot,
                             sim::CloneMap&) const override {
    sim::copy_into(*this, slot);
    return true;
  }

 private:
  std::size_t cursor_ = 0;
  std::vector<std::uint64_t> seen_;  ///< Distinct quorum masks so far.
};

/// Failure-detector legality under fault injection: the prefix-checkable
/// clauses of the enabled detector components, validated against the
/// run's *current* failure pattern — which injected crashes grow on the
/// fly — via fd/history_checker. FS: red only at-or-after a failure.
/// Psi: bottom prefix, single switch, one common branch, the FS branch
/// only after a failure. (Sigma intersection stays the job of
/// SigmaIntersectionInvariant.) A crash injected later only widens what
/// is legal and can never legalise an earlier sample, so checking each
/// growing prefix is sound. Requires SimConfig::record_fd_samples.
///
/// encode_state stays empty on purpose: the verdict on *future* samples
/// depends only on the oracle's latched mode state and the pattern, both
/// of which the simulator already folds into the fingerprint.
class FdPrefixInvariant : public Invariant {
 public:
  FdPrefixInvariant(bool fs, bool psi) : fs_(fs), psi_(psi) {}
  [[nodiscard]] std::string name() const override { return "fd-prefix"; }
  std::optional<Violation> check(const sim::Simulator& sim) override;
  [[nodiscard]] bool copy_to(std::unique_ptr<Invariant>& slot,
                             sim::CloneMap&) const override {
    sim::copy_into(*this, slot);
    return true;
  }

 private:
  bool fs_;
  bool psi_;
  std::size_t checked_ = 0;  ///< Sample count at the last (re)check.
};

/// Register atomicity: the history of read/write operations recorded by
/// the workload clients stays linearizable (Herlihy-Wing via the
/// Wing-Gong checker). The invariant owns the History the clients write
/// into; re-checks fire only when an operation completes.
class RegisterAtomicityInvariant : public Invariant {
 public:
  explicit RegisterAtomicityInvariant(std::int64_t initial = 0)
      : initial_(initial) {}
  [[nodiscard]] std::string name() const override {
    return "register-atomicity";
  }
  /// The shared log the scenario wires its RegisterWorkloadModules to.
  [[nodiscard]] reg::History& history() { return history_; }
  std::optional<Violation> check(const sim::Simulator& sim) override;
  /// Folds each op's (client, per-client index, kind, value, completion)
  /// plus the real-time precedence edges between ops — relative order
  /// only, no absolute timestamps — since future verdicts depend on
  /// which past ops overlapped, not on when they ran.
  void encode_state(sim::StateEncoder& enc) const override;
  /// Records the copy's History in `map` for the clients' relink.
  [[nodiscard]] bool copy_to(std::unique_ptr<Invariant>& slot,
                             sim::CloneMap& map) const override {
    map.add(&history_, &sim::copy_into(*this, slot).history_);
    return true;
  }

 private:
  reg::History history_;
  std::int64_t initial_;
  std::size_t checked_completed_ = 0;
};

/// The carried state of a delivery-order invariant: a copy of every
/// process's delivered_log(), read from the broadcast module at
/// `position` of each host. check() brings the copy up to date before
/// judging, and every path that fingerprints a state checks invariants
/// first (the explorer loop, lasso replay, the checkpoint tests), so
/// the fold below always sees the current logs.
class DeliveryLogInvariant : public Invariant {
 public:
  void encode_state(sim::StateEncoder& enc) const override;

 protected:
  DeliveryLogInvariant(int n, std::size_t position)
      : position_(position), logs_(static_cast<std::size_t>(n)) {}
  /// Appends each process's deliveries since the last call, read from
  /// its module M.
  template <typename M>
  void catch_up(const sim::Simulator& sim);

  std::size_t position_;
  std::vector<std::vector<broadcast::AppMessage>> logs_;
};

/// Atomic-broadcast total order: the per-process delivery logs are
/// always prefix-consistent — no two processes ever disagree at the same
/// log position.
class TotalOrderInvariant : public DeliveryLogInvariant {
 public:
  /// `position`: where every process hosts its AtomicBroadcastModule.
  TotalOrderInvariant(int n, std::size_t position)
      : DeliveryLogInvariant(n, position) {}
  [[nodiscard]] std::string name() const override { return "total-order"; }
  std::optional<Violation> check(const sim::Simulator& sim) override;
  [[nodiscard]] bool copy_to(std::unique_ptr<Invariant>& slot,
                             sim::CloneMap&) const override {
    sim::copy_into(*this, slot);
    return true;
  }
};

/// URB integrity: each process delivers a given (origin, seq) at most
/// once, and only messages that were actually broadcast (the scenario's
/// workload has sender i broadcast exactly one message, body 100+i, as
/// its seq 1).
class UrbIntegrityInvariant : public DeliveryLogInvariant {
 public:
  /// `position`: where every process hosts its UrbModule.
  UrbIntegrityInvariant(int n, int senders, std::size_t position)
      : DeliveryLogInvariant(n, position), senders_(senders) {}
  [[nodiscard]] std::string name() const override { return "urb-integrity"; }
  std::optional<Violation> check(const sim::Simulator& sim) override;
  [[nodiscard]] bool copy_to(std::unique_ptr<Invariant>& slot,
                             sim::CloneMap&) const override {
    sim::copy_into(*this, slot);
    return true;
  }

 private:
  int senders_;
};

/// Termination: every correct process eventually emits an event of
/// `kind` (decides, commits, ...).
class EventualDecisionProperty : public EventualProperty {
 public:
  explicit EventualDecisionProperty(std::string kind)
      : kind_(std::move(kind)) {}
  [[nodiscard]] std::string name() const override {
    return "eventual(" + kind_ + ")";
  }
  std::optional<Violation> check_final(const sim::Simulator& sim) override;
  void copy_to(std::unique_ptr<EventualProperty>& slot) const override {
    sim::copy_into(*this, slot);
  }

 private:
  std::string kind_;
};

/// Eventual leadership (the Omega specification, for *implemented*
/// detectors): by the end of a synchronous-enough run, the last leader
/// event (`kind`, value = leader id) emitted by every correct process
/// names the same correct process — and, since heartbeat Omega
/// stabilises on the smallest trusted id, specifically the smallest
/// correct one.
class EventualLeadershipProperty : public EventualProperty {
 public:
  explicit EventualLeadershipProperty(std::string kind)
      : kind_(std::move(kind)) {}
  [[nodiscard]] std::string name() const override {
    return "eventual-leadership(" + kind_ + ")";
  }
  std::optional<Violation> check_final(const sim::Simulator& sim) override;
  void copy_to(std::unique_ptr<EventualProperty>& slot) const override {
    sim::copy_into(*this, slot);
  }

 private:
  std::string kind_;
};

}  // namespace wfd::explore
