// NBAC from the perfect failure detector P (related work: Fromentin,
// Raynal & Tronel [9] show P is exactly what pairwise NBAC needs; the
// paper's Corollary 10 shows the weakest detector for plain NBAC is the
// much weaker (Psi, FS)). P is *sufficient* in any environment:
//
//   - broadcast the vote;
//   - wait, for every process q, until q's vote arrived or q is
//     suspected — P's strong accuracy makes a suspicion a proof of
//     death, so "missing vote" really means "crashed";
//   - propose 1 to consensus iff all n votes arrived and all are Yes
//     (P is a Strong detector, so the Chandra-Toueg S-consensus works
//     in any environment); Commit iff consensus decides 1.
//
// Validity: a 0 proposal stems from a No vote or a true crash; a 1
// proposal proves everyone voted Yes.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "consensus/strong_consensus.h"
#include "nbac/nbac_api.h"
#include "sim/module.h"

namespace wfd::nbac {

/// Listens to its consensus instance's decision.
class NbacFromPerfectModule : public sim::Module,
                              public NbacApi,
                              public sim::Listener<int> {
 public:
  void vote(Vote v, sim::Hook done = {}) override {
    WFD_CHECK_MSG(!voted_, "vote called twice");
    voted_ = true;
    my_vote_ = v;
    done_ = done;
  }

  [[nodiscard]] bool decided() const override { return decided_; }
  [[nodiscard]] Decision decision() const override {
    WFD_CHECK(decided_);
    return decision_;
  }
  [[nodiscard]] bool done() const override { return !voted_ || decided_; }

  void on_message(ProcessId from, const sim::Payload& msg) override {
    if (const auto* m = sim::payload_cast<VoteMsg>(msg)) {
      ensure_votes();
      auto& slot = votes_[static_cast<std::size_t>(from)];
      if (!slot.has_value()) {
        slot = m->vote;
        ++received_;
      }
    }
  }

  void on_tick() override {
    if (!voted_ || decided_ || proposed_) return;
    if (!announced_) {
      announced_ = true;
      ensure_votes();
      if (!votes_[static_cast<std::size_t>(self())].has_value()) {
        votes_[static_cast<std::size_t>(self())] = my_vote_;
        ++received_;
      }
      broadcast(sim::make_payload<VoteMsg>(my_vote_), /*include_self=*/false);
      return;
    }
    const auto v = detector();
    if (!v.suspected.has_value()) return;
    // Wait: every process has voted or provably crashed.
    for (ProcessId q = 0; q < n(); ++q) {
      if (!votes_[static_cast<std::size_t>(q)].has_value() &&
          !v.suspected->contains(q)) {
        return;
      }
    }
    int proposal = 1;
    if (received_ < n()) {
      proposal = 0;  // Someone crashed before voting.
    } else {
      for (const auto& vote : votes_) {
        if (*vote == Vote::kNo) proposal = 0;
      }
    }
    proposed_ = true;
    auto& cons = host().add_module<consensus::StrongConsensusModule<int>>(
        name() + "/cons");
    cons.propose(proposal, hook());
  }

  /// The consensus instance decided `d`.
  void on_result(std::uint64_t, const int& d) override {
    finish(d == 1 ? Decision::kCommit : Decision::kAbort);
  }

  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("voted", voted_);
    enc.field("announced", announced_);
    enc.field("proposed", proposed_);
    enc.field("my-vote", my_vote_);
    sim::encode_field(enc, "votes", votes_);
    enc.field("received", received_);
    enc.field("decided", decided_);
    enc.field("decision", decision_);
  }

 private:
  // Audited non-commuting: the wait is suspicion-gated ("voted or
  // suspected"), so one delivery of a pair can unblock the tick-side
  // transition with a votes_ snapshot that depends on arrival order.
  struct VoteMsg final : sim::Payload {
    explicit VoteMsg(Vote v) : vote(v) {}
    Vote vote;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "vote");
      enc.field("vote", vote);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "nbac.p.vote";
    }
  };

  void ensure_votes() {
    if (votes_.empty()) {
      votes_.assign(static_cast<std::size_t>(n()), std::nullopt);
    }
  }

  void finish(Decision d) {
    if (decided_) return;
    decided_ = true;
    decision_ = d;
    emit("nbac-decide", d == Decision::kCommit ? 1 : 0);
    notify(std::exchange(done_, {}), decision_);
  }

  bool voted_ = false;
  bool announced_ = false;
  bool proposed_ = false;
  Vote my_vote_ = Vote::kYes;
  sim::Hook done_;
  std::vector<std::optional<Vote>> votes_;
  int received_ = 0;
  bool decided_ = false;
  Decision decision_ = Decision::kAbort;
};

}  // namespace wfd::nbac
