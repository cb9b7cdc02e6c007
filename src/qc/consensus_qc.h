// Any consensus algorithm is trivially a QC algorithm that never
// exercises the option to quit (Q is an option, never an obligation).
// This adapter exposes the library's (Omega, Sigma) consensus through
// the QC interface; it is the "A = consensus, D = (Omega, Sigma)" case
// of the Figure 3 extraction tests and benches.
#pragma once

#include <utility>

#include "common/check.h"
#include "consensus/omega_sigma_consensus.h"
#include "qc/qc_api.h"
#include "sim/module.h"

namespace wfd::qc {

/// Listens to its inner consensus's decision.
template <typename V>
class ConsensusAsQcModule : public sim::Module,
                            public QcApi<V>,
                            public sim::Listener<V> {
 public:
  using Inner = consensus::OmegaSigmaConsensusModule<V>;

  void propose(const V& value, sim::Hook done = {}) override {
    WFD_CHECK_MSG(!proposed_, "propose called twice");
    proposed_ = true;
    done_ = done;
    ensure_inner().propose(value, hook());
  }

  [[nodiscard]] bool decided() const override { return decided_; }
  [[nodiscard]] const QcResult<V>& result() const override {
    WFD_CHECK(decided_);
    return result_;
  }
  [[nodiscard]] bool done() const override { return !proposed_ || decided_; }

  void on_start() override { ensure_inner(); }
  void on_message(ProcessId, const sim::Payload&) override {}

  /// The inner consensus decided `d`.
  void on_result(std::uint64_t, const V& d) override {
    decided_ = true;
    result_ = QcResult<V>::value_result(d);
    notify(std::exchange(done_, {}), result_);
  }

  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("has-inner", inner_ != sim::Hook::kNone);
    enc.field("decided", decided_);
    enc.field("quit", result_.quit);
    sim::encode_field(enc, "result", result_.value);
  }

 private:
  Inner& ensure_inner() {
    if (inner_ == sim::Hook::kNone) {
      inner_ = host().template add_module<Inner>(name() + "/cons").index();
    }
    return host().template module_at<Inner>(inner_);
  }

  std::size_t inner_ = sim::Hook::kNone;  ///< The inner module's position.
  bool proposed_ = false;
  sim::Hook done_;
  bool decided_ = false;
  QcResult<V> result_;
};

}  // namespace wfd::qc
