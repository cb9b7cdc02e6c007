// From binary consensus to multivalued consensus (Mostefaoui, Raynal,
// Tronel [20]) — the technique footnote 6 of the paper invokes so that
// the Figure 3 extraction may assume a multivalued QC algorithm.
//
// Every process broadcasts its proposal, then the processes run a
// sequence of *binary* consensus instances k = 0, 1, 2, ...; in instance
// k a process proposes 1 iff it has already received the proposal of
// process k mod n. The first instance to decide 1 designates the winner:
// everyone decides the proposal of process k mod n (waiting for it to
// arrive if needed — some process vouched for it by proposing 1, so it
// was broadcast and reliable links will deliver it).
//
// Termination: once all faulty processes have crashed and every correct
// process has received every correct proposal, any instance k whose
// owner k mod n is correct and in which no process proposed before that
// point receives only 1-proposals, and validity forces a 1 decision.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "common/check.h"
#include "consensus/consensus_api.h"
#include "consensus/omega_sigma_consensus.h"
#include "sim/module.h"

namespace wfd::consensus {

template <typename V>
class MultivaluedFromBinaryModule : public sim::Module,
                                    public ConsensusApi<V>,
                                    public sim::Listener<int> {
 public:
  using BinaryModule = OmegaSigmaConsensusModule<int>;

  /// May be called outside a step; the protocol starts at the host's
  /// next step.
  void propose(const V& value, sim::Hook done = {}) override {
    WFD_CHECK_MSG(!proposed_, "propose called twice");
    proposed_ = true;
    proposal_ = value;
    done_ = done;
  }

  void on_tick() override {
    if (!proposed_ || initialized_) return;
    initialized_ = true;
    known_[self()] = proposal_;
    broadcast(sim::make_payload<ProposalMsg>(proposal_),
              /*include_self=*/false);
    start_instance();
  }

  [[nodiscard]] bool decided() const override { return decided_; }
  [[nodiscard]] const V& decision() const override {
    WFD_CHECK(decided_);
    return decision_;
  }
  [[nodiscard]] bool done() const override { return !proposed_ || decided_; }

  /// Binary instances consumed before deciding (cost metric: [20] pays
  /// O(position of the first received proposal)).
  [[nodiscard]] std::uint64_t instances_used() const { return k_ + 1; }

  void on_message(ProcessId from, const sim::Payload& msg) override {
    if (const auto* m = sim::payload_cast<ProposalMsg>(msg)) {
      known_.emplace(from, m->value);
      try_finish();
    }
  }

  /// Binary instance `k` decided `d`.
  void on_result(std::uint64_t k, const int& d) override {
    if (decided_ || k != k_) return;
    if (d == 1) {
      waiting_ = static_cast<ProcessId>(k_ % static_cast<std::uint64_t>(n()));
      try_finish();
    } else {
      ++k_;
      start_instance();
    }
  }

  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("proposed", proposed_);
    enc.field("initialized", initialized_);
    sim::encode_field(enc, "proposal", proposal_);
    for (const auto& [p, v] : known_) {
      enc.push("known", static_cast<std::uint64_t>(p));
      sim::encode_field(enc, "val", v);
      enc.pop();
    }
    enc.field("k", k_);
    enc.field("waiting", waiting_);
    enc.field("decided", decided_);
    sim::encode_field(enc, "decision", decision_);
  }

 private:
  // Audited non-commuting: try_finish() runs inside the handler, and a
  // proposal from the process the decider is currently waiting_ on can
  // complete the decision by itself — the pair's order moves the decision
  // step and the known_ snapshot it reads.
  struct ProposalMsg final : sim::Payload {
    explicit ProposalMsg(V v) : value(std::move(v)) {}
    V value;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "proposal");
      sim::encode_field(enc, "value", value);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "mvcons.proposal";
    }
  };

  void start_instance() {
    const ProcessId j = static_cast<ProcessId>(k_ % static_cast<std::uint64_t>(n()));
    auto& bin = host().template add_module<BinaryModule>(
        name() + "/bin/" + std::to_string(k_));
    bin.propose(known_.count(j) != 0 ? 1 : 0, hook(k_));
  }


  void try_finish() {
    if (decided_ || !waiting_.has_value()) return;
    auto it = known_.find(*waiting_);
    if (it == known_.end()) return;
    decided_ = true;
    decision_ = it->second;
    emit("decide", decide_event_value(decision_));
    notify(std::exchange(done_, {}), decision_);
  }

  bool proposed_ = false;
  bool initialized_ = false;
  V proposal_{};
  sim::Hook done_;
  std::map<ProcessId, V> known_;
  std::uint64_t k_ = 0;
  std::optional<ProcessId> waiting_;
  bool decided_ = false;
  V decision_{};
};

}  // namespace wfd::consensus
