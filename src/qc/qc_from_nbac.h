// QC from NBAC (Figure 5, Theorem 8b).
//
// Each process broadcasts its proposal, then votes Yes in the given NBAC
// instance. If NBAC aborts, the process returns Q — legal, because with
// all-Yes votes NBAC's validity lets Abort happen only after a real
// failure. If NBAC commits, every process voted, hence broadcast its
// proposal first; reliable links deliver all n proposals, and every
// process returns the smallest one — agreement without any further
// communication.
#pragma once

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "consensus/consensus_api.h"
#include "nbac/nbac_api.h"
#include "qc/qc_api.h"
#include "sim/module.h"

namespace wfd::qc {

/// Listens to the NBAC instance's decision.
template <typename V>
class QcFromNbacModule : public sim::Module,
                         public QcApi<V>,
                         public sim::Listener<nbac::Decision> {
 public:
  /// `inner`: the position of any NBAC solution hosted in the same
  /// process.
  explicit QcFromNbacModule(std::size_t inner) : inner_(inner) {}

  void propose(const V& value, sim::Hook done = {}) override {
    WFD_CHECK_MSG(!proposed_, "propose called twice");
    proposed_ = true;
    proposal_ = value;
    done_ = done;
  }

  [[nodiscard]] bool decided() const override { return decided_; }
  [[nodiscard]] const QcResult<V>& result() const override {
    WFD_CHECK(decided_);
    return result_;
  }
  [[nodiscard]] bool done() const override { return !proposed_ || decided_; }

  void on_message(ProcessId from, const sim::Payload& msg) override {
    if (const auto* m = sim::payload_cast<ProposalMsg>(msg)) {
      // Proposals may arrive before this process announced its own.
      ensure_proposals();
      auto& slot = proposals_[static_cast<std::size_t>(from)];
      if (!slot.has_value()) {
        slot = m->value;
        ++received_;
      }
      try_finish_commit();
    }
  }

  void on_tick() override {
    if (!proposed_ || decided_) return;
    if (!announced_) {
      // Line 1: send v to all.
      announced_ = true;
      ensure_proposals();
      if (!proposals_[static_cast<std::size_t>(self())].has_value()) {
        proposals_[static_cast<std::size_t>(self())] = proposal_;
        ++received_;
      }
      broadcast(sim::make_payload<ProposalMsg>(proposal_),
                /*include_self=*/false);
      // Line 2: d := VOTE(Yes).
      host().template module_at<nbac::NbacApi>(inner_).vote(nbac::Vote::kYes,
                                                            hook());
    }
  }

  /// The NBAC instance decided `d`.
  void on_result(std::uint64_t, const nbac::Decision& d) override {
    nbac_decision_ = d;
    if (d == nbac::Decision::kAbort) {
      // Lines 3-4.
      finish(QcResult<V>::quit_result());
    } else {
      // Lines 5-7: wait for all proposals, return the smallest.
      try_finish_commit();
    }
  }

  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("proposed", proposed_);
    enc.field("announced", announced_);
    sim::encode_field(enc, "proposal", proposal_);
    sim::encode_field(enc, "proposals", proposals_);
    enc.field("received", received_);
    sim::encode_field(enc, "nbac-decision", nbac_decision_);
    enc.field("decided", decided_);
    enc.field("quit", result_.quit);
    sim::encode_field(enc, "result", result_.value);
  }

 private:
  // Proposals commute with each other: the handler is a sender-keyed
  // write-once slot update, each process broadcasts at most one proposal
  // (the announced_ latch), and try_finish_commit's all-n gate can only
  // trip after the last proposal of any pending pair — at which point
  // proposals_ is order-independent.
  struct ProposalMsg final : sim::Payload {
    explicit ProposalMsg(V v) : value(std::move(v)) {}
    V value;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "proposal");
      sim::encode_field(enc, "value", value);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "qc.proposal";
    }
    [[nodiscard]] bool commutes_with(const sim::Payload& other)
        const override {
      return sim::payload_cast<ProposalMsg>(other) != nullptr;
    }
  };

  void ensure_proposals() {
    if (proposals_.empty()) {
      proposals_.assign(static_cast<std::size_t>(n()), std::nullopt);
    }
  }

  void try_finish_commit() {
    if (decided_ || nbac_decision_ != nbac::Decision::kCommit) return;
    if (received_ < n()) return;
    V smallest = *proposals_[0];
    for (int q = 1; q < n(); ++q) {
      smallest = std::min(smallest, *proposals_[static_cast<std::size_t>(q)]);
    }
    finish(QcResult<V>::value_result(smallest));
  }

  void finish(QcResult<V> r) {
    if (decided_) return;
    decided_ = true;
    result_ = std::move(r);
    emit("qc-decide",
         result_.quit ? -1 : consensus::decide_event_value(result_.value));
    notify(std::exchange(done_, {}), result_);
  }

  std::size_t inner_;  ///< The NBAC module's position.
  bool proposed_ = false;
  bool announced_ = false;
  V proposal_{};
  sim::Hook done_;
  std::vector<std::optional<V>> proposals_;
  int received_ = 0;
  std::optional<nbac::Decision> nbac_decision_;
  bool decided_ = false;
  QcResult<V> result_;
};

}  // namespace wfd::qc
