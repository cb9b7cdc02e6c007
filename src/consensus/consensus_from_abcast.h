// Consensus from atomic broadcast — the trivial direction of the
// Chandra-Toueg equivalence [4]: abcast your proposal and decide the
// value of the FIRST message in the total order. Uniform agreement is
// the total-order property; validity holds because only proposals are
// broadcast; termination follows from abcast's liveness.
#pragma once

#include <cstdint>
#include <utility>

#include "broadcast/atomic_broadcast.h"
#include "common/check.h"
#include "consensus/consensus_api.h"
#include "sim/module.h"

namespace wfd::consensus {

class ConsensusFromAbcastModule
    : public sim::Module,
      public ConsensusApi<std::int64_t>,
      public sim::Listener<broadcast::AppMessage> {
 public:
  void propose(const std::int64_t& value, sim::Hook done = {}) override {
    WFD_CHECK_MSG(!proposed_, "propose called twice");
    proposed_ = true;
    ensure_abcast().abcast(value);
    // This process decides on the first TO-delivered message, proposer
    // or not, so the decision can precede the local propose.
    if (decided_) {
      notify(done, decision_);
      return;
    }
    done_ = done;
  }

  [[nodiscard]] bool decided() const override { return decided_; }
  [[nodiscard]] const std::int64_t& decision() const override {
    WFD_CHECK(decided_);
    return decision_;
  }
  [[nodiscard]] bool done() const override { return !proposed_ || decided_; }

  void on_start() override { ensure_abcast(); }
  void on_message(ProcessId, const sim::Payload&) override {}

  /// The abcast module TO-delivered `m`: the first one is the decision.
  void on_result(std::uint64_t, const broadcast::AppMessage& m) override {
    if (decided_) return;
    decided_ = true;
    decision_ = m.body;
    emit("decide", decide_event_value(decision_));
    notify(std::exchange(done_, {}), decision_);
  }

  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("has-abcast", ab_ != sim::Hook::kNone);
    enc.field("proposed", proposed_);
    enc.field("decided", decided_);
    enc.field("decision", decision_);
  }

 private:
  broadcast::AtomicBroadcastModule& ensure_abcast() {
    if (ab_ == sim::Hook::kNone) {
      auto& ab = host().add_module<broadcast::AtomicBroadcastModule>(
          name() + "/ab");
      ab.set_deliver(hook());
      ab_ = ab.index();
    }
    return host().module_at<broadcast::AtomicBroadcastModule>(ab_);
  }

  std::size_t ab_ = sim::Hook::kNone;  ///< The abcast module's position.
  bool proposed_ = false;
  sim::Hook done_;
  bool decided_ = false;
  std::int64_t decision_ = 0;
};

}  // namespace wfd::consensus
