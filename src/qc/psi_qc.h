// Solving QC with Psi (Figure 2, Theorem 5).
//
// Each process busy-waits until its Psi module outputs something other
// than bottom. If Psi turned into FS — which Psi may do only if a
// failure occurred — the process returns Q; Q is then valid, and
// agreement holds because all processes see the same branch. If Psi
// turned into (Omega, Sigma), the process feeds its proposal into the
// (Omega, Sigma)-based consensus algorithm of Corollary 2 and returns
// its decision.
#pragma once

#include <memory>
#include <utility>

#include "common/check.h"
#include "consensus/consensus_api.h"
#include "consensus/omega_sigma_consensus.h"
#include "qc/qc_api.h"
#include "sim/module.h"

namespace wfd::qc {

/// Listens to its inner consensus's decision.
template <typename V>
class PsiQcModule : public sim::Module,
                    public QcApi<V>,
                    public sim::Listener<V> {
 public:
  using InnerConsensus = consensus::OmegaSigmaConsensusModule<V>;

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

  /// Before a proposal or after dispatch the tick returns without the
  /// detector read; none of the three latches is written by a message
  /// handler (propose() runs in a tick, finish() in the inner consensus
  /// hook, whose messages are not tick-insensitive).
  [[nodiscard]] bool tick_noop() const override {
    return !proposed_ || decided_ || dispatched_;
  }

  void on_message(ProcessId, const sim::Payload&) override {}

  void on_tick() override {
    if (!proposed_ || decided_ || dispatched_) return;
    const auto v = detector();
    if (!v.psi.has_value()) return;
    switch (v.psi->mode) {
      case fd::PsiValue::Mode::kBottom:
        return;  // Line 1: while Psi_p = bottom do nop.
      case fd::PsiValue::Mode::kFs:
        // Lines 2-4: Psi behaves like FS; a failure occurred — quit.
        dispatched_ = true;
        finish(QcResult<V>::quit_result());
        return;
      case fd::PsiValue::Mode::kOmegaSigma: {
        // Lines 5-7: Psi behaves like (Omega, Sigma); run consensus.
        dispatched_ = true;
        auto& cons =
            host().template add_module<InnerConsensus>(name() + "/cons");
        cons.propose(proposal_, hook());
        return;
      }
    }
  }

  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("proposed", proposed_);
    enc.field("dispatched", dispatched_);
    sim::encode_field(enc, "proposal", proposal_);
    enc.field("decided", decided_);
    enc.field("quit", result_.quit);
    sim::encode_field(enc, "result", result_.value);
  }

  /// The inner consensus decided `d`.
  void on_result(std::uint64_t, const V& d) override {
    finish(QcResult<V>::value_result(d));
  }

  [[nodiscard]] bool copy_to(
      std::unique_ptr<sim::Module>& slot) const override {
    sim::copy_into(*this, slot);
    return true;
  }

 private:
  void finish(QcResult<V> r) {
    if (decided_) return;
    decided_ = true;
    result_ = std::move(r);
    // -1 encodes Q; a value decision records the value itself (QC values
    // in the library's scenarios are non-negative).
    emit("qc-decide",
         result_.quit ? -1 : consensus::decide_event_value(result_.value));
    notify(std::exchange(done_, {}), result_);
  }

  bool proposed_ = false;
  bool dispatched_ = false;
  V proposal_{};
  sim::Hook done_;
  bool decided_ = false;
  QcResult<V> result_;
};

}  // namespace wfd::qc
