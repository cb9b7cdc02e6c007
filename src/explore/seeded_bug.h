// A deliberately broken consensus "protocol", used to validate that the
// exploration subsystem actually finds specification violations and that
// counterexample shrinking and replay work end to end.
//
// Each process broadcasts its proposal (to itself too) and decides the
// first proposal it receives. Under benign schedules — everyone hears
// the same first broadcast — all processes agree, so sampling schedulers
// rarely notice anything; but any schedule in which two processes first
// hear different proposals violates agreement. wfd_check must find such
// a schedule, shrink it, and replay it deterministically.
// CrashTimingConsensusModule is a second seeded bug, aimed at crash
// *injection* rather than schedules: a two-phase coordinator protocol
// that is correct on every crash-free schedule and under every "early"
// crash, but violates agreement when the coordinator crashes in the
// window between completing phase 1 (where it — the bug — already
// decides) and broadcasting phase 2 on its next tick. Scripted crash
// times that predate the phase-1 collect can never exhibit it;
// `wfd_check --crash=explore` places the crash relative to the schedule
// and finds it.
// GiveUpLeaderConsensusModule is a third seeded bug, and the first
// *liveness* one: the real (Omega, Sigma) consensus protocol with the
// give_up_when_opposed flag set, so a leader whose first round is
// opposed (Nacked) or stalls past a short retry interval never starts
// another round. No safety clause ever fails — bounded exploration
// reports a clean tree — but the system can wedge in a quiescent
// undecided state where every process's step is a no-op: a fair cycle
// avoiding the termination goal, which only the fair-cycle (lasso)
// search refutes (`wfd_check --problem=consensus-live-bug
// --liveness=termination`).
// DeferToPromisedConsensusModule is a fourth seeded bug, aimed at
// *crash-composed* liveness: the real protocol with the
// defer_to_promised_owner flag set, so a would-be leader that has
// promised another process's round waits for that owner instead of
// preempting it. Crash-free runs terminate (a stable leader's own
// Prepare makes promised_ its own round) and bounded safety stays
// clean, but a leader crash after its Prepare reached a survivor
// wedges the re-elected leader forever — a fair goal-avoiding cycle
// that only exists behind a crash edge, so only `--crash=explore`
// composed with `--liveness=termination` can find it
// (`wfd_check --problem=consensus-crash-live-bug`).
#pragma once

#include <memory>

#include "consensus/consensus_api.h"
#include "consensus/omega_sigma_consensus.h"
#include "fd/values.h"
#include "sim/module.h"
#include "sim/payload.h"

namespace wfd::explore {

class FirstHeardConsensusModule : public sim::Module {
 public:
  /// Must be called before the run starts.
  void propose(int value) {
    proposed_ = true;
    proposal_ = value;
  }

  [[nodiscard]] bool decided() const { return decided_; }
  [[nodiscard]] int decision() const { return decision_; }
  [[nodiscard]] bool done() const override { return !proposed_ || decided_; }

  void on_start() override {
    broadcast(sim::make_payload<Proposal>(proposal_), /*include_self=*/true);
  }

  void on_message(ProcessId, const sim::Payload& msg) override {
    const auto* m = sim::payload_cast<Proposal>(msg);
    if (m == nullptr || decided_) return;
    decided_ = true;
    decision_ = m->value;
    emit("decide", decision_);
  }

  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("proposed", proposed_);
    enc.field("proposal", proposal_);
    enc.field("decided", decided_);
    enc.field("decision", decision_);
  }

  [[nodiscard]] bool copy_to(
      std::unique_ptr<sim::Module>& slot) const override {
    sim::copy_into(*this, slot);
    return true;
  }

 private:
  // Audited non-commuting: decide-first-heard is exactly an order race —
  // the whole point of this module is that delivery order is observable.
  struct Proposal final : sim::Payload {
    explicit Proposal(int v) : value(v) {}
    int value;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("value", value);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "bug.first-heard";
    }
  };

  bool proposed_ = false;
  int proposal_ = 0;
  bool decided_ = false;
  int decision_ = 0;
};

/// The crash-timing bug. Process 0 is the coordinator; it broadcasts
/// Phase1, collects one ack per peer, then decides its own proposal —
/// and only on its NEXT tick broadcasts Phase2 carrying the decision
/// (deferring the broadcast past the decide is the seeded bug; the
/// correct protocol does both in the same atomic step). Participants
/// decide the Phase2 value; a participant whose FS detector turns red
/// before Phase2 arrives falls back to deciding its own proposal.
///
/// Crash-free runs and crashes before the phase-1 collect completes are
/// safe (either Phase2 reaches everyone, or nobody saw a coordinator
/// decision and the fallback is unanimous). A coordinator crash at or
/// after the collect leaves its decision in the trace with Phase2 unsent
/// (or partially delivered), so red participants decide the other value.
class CrashTimingConsensusModule : public sim::Module {
 public:
  /// Must be called before the run starts.
  void propose(int value) {
    proposed_ = true;
    proposal_ = value;
  }

  [[nodiscard]] bool decided() const { return decided_; }
  [[nodiscard]] int decision() const { return decision_; }
  [[nodiscard]] bool done() const override {
    return !proposed_ || (decided_ && !pending_phase2_);
  }

  void on_start() override {
    if (self() != kCoordinator) return;
    acks_ = 1;  // Its own.
    maybe_decide();
    broadcast(sim::make_payload<Msg>(Msg::kPhase1, proposal_),
              /*include_self=*/false);
  }

  void on_message(ProcessId from, const sim::Payload& msg) override {
    const auto* m = sim::payload_cast<Msg>(msg);
    if (m == nullptr) return;
    switch (m->tag) {
      case Msg::kPhase1:
        send(from, sim::make_payload<Msg>(Msg::kAck, proposal_));
        break;
      case Msg::kAck:
        if (self() != kCoordinator) break;
        ++acks_;
        maybe_decide();
        break;
      case Msg::kPhase2:
        if (!decided_) {
          decided_ = true;
          decision_ = m->value;
          emit("decide", decision_);
        }
        break;
    }
  }

  void on_tick() override {
    if (pending_phase2_) {
      pending_phase2_ = false;
      broadcast(sim::make_payload<Msg>(Msg::kPhase2, decision_),
                /*include_self=*/false);
      return;
    }
    // Participant fallback: the coordinator is gone and Phase2 never
    // arrived here — decide our own proposal.
    if (self() != kCoordinator && proposed_ && !decided_ &&
        detector().fs == fd::FsColor::kRed) {
      decided_ = true;
      decision_ = proposal_;
      emit("decide", decision_);
    }
  }

  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("proposed", proposed_);
    enc.field("proposal", proposal_);
    enc.field("acks", acks_);
    enc.field("decided", decided_);
    enc.field("decision", decision_);
    enc.field("pending-phase2", pending_phase2_);
  }

  [[nodiscard]] bool copy_to(
      std::unique_ptr<sim::Module>& slot) const override {
    sim::copy_into(*this, slot);
    return true;
  }

 private:
  static constexpr ProcessId kCoordinator = 0;

  void maybe_decide() {
    if (decided_ || acks_ < n()) return;
    decided_ = true;
    decision_ = proposal_;
    emit("decide", decision_);
    pending_phase2_ = true;  // BUG: should broadcast Phase2 right here.
  }

  // Audited non-commuting: phase transitions are threshold-counted and
  // the fallback races against Phase2 delivery by design.
  struct Msg final : sim::Payload {
    enum Tag { kPhase1, kAck, kPhase2 };
    Msg(Tag t, int v) : tag(t), value(v) {}
    Tag tag;
    int value;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("tag", tag);
      enc.field("value", value);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "bug.crash-timing";
    }
  };

  bool proposed_ = false;
  int proposal_ = 0;
  int acks_ = 0;
  bool decided_ = false;
  bool pending_phase2_ = false;
  int decision_ = 0;
};

/// The liveness bug (see the file comment): the unmodified
/// OmegaSigmaConsensusModule run with the seeded give-up flag and a
/// retry interval short enough that a leader ticked twice before its
/// Promises arrive already counts as stalled. A schedule that does so —
/// then drains the in-flight messages — parks the run in a quiescent
/// undecided state forever. The healthy module retries with a fresh
/// round from that same schedule, so only the buggy build has a fair
/// goal-avoiding cycle.
class GiveUpLeaderConsensusModule
    : public consensus::OmegaSigmaConsensusModule<int> {
 public:
  GiveUpLeaderConsensusModule()
      : consensus::OmegaSigmaConsensusModule<int>(bug_options()) {}

  [[nodiscard]] bool copy_to(
      std::unique_ptr<sim::Module>& slot) const override {
    sim::copy_into(*this, slot);
    return true;
  }

 private:
  [[nodiscard]] static Options bug_options() {
    Options o;
    o.retry_interval = 2;
    o.give_up_when_opposed = true;
    return o;
  }
};

/// The crash-composed liveness bug (see the file comment): the
/// unmodified OmegaSigmaConsensusModule run with the seeded
/// defer-to-promised-owner flag. Without a crash the flag is inert
/// enough to keep every liveness clause green — the static Ω leader's
/// self-delivered Prepare keeps promised_ owned by itself — so the bug
/// is invisible to crash-free `--liveness` runs and to bounded safety
/// under any budget; it needs a leader crash between its Prepare
/// reaching a survivor and its round closing, followed by Ω re-electing
/// that survivor, which only `--crash=explore --liveness=termination`
/// explores.
class DeferToPromisedConsensusModule
    : public consensus::OmegaSigmaConsensusModule<int> {
 public:
  DeferToPromisedConsensusModule()
      : consensus::OmegaSigmaConsensusModule<int>(bug_options()) {}

  [[nodiscard]] bool copy_to(
      std::unique_ptr<sim::Module>& slot) const override {
    sim::copy_into(*this, slot);
    return true;
  }

 private:
  [[nodiscard]] static Options bug_options() {
    Options o;
    o.retry_interval = 2;
    o.defer_to_promised_owner = true;
    return o;
  }
};

}  // namespace wfd::explore
