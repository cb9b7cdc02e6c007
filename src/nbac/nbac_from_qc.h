// NBAC from QC and FS (Figure 4, Theorem 8a).
//
// Each process broadcasts its vote and waits until it has either
// received every process's vote or its FS module turned red. It then
// proposes 1 to quittable consensus iff it saw n Yes votes (0 on a No
// vote or a failure signal), and commits iff QC decides 1 — a decision
// of 0 or Q yields Abort.
//
// Validity: Commit requires QC to decide 1; by QC validity some process
// proposed 1, so it received Yes votes from everyone. Abort requires a
// 0 (some No vote or a red signal, and red implies a real failure) or a
// Q (QC allows Q only after a failure). Termination: if a process never
// receives all votes, some process crashed, so FS eventually turns red
// at every correct process.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "nbac/nbac_api.h"
#include "qc/qc_api.h"
#include "sim/module.h"

namespace wfd::nbac {

/// Listens to the QC instance's result.
class NbacFromQcModule : public sim::Module,
                         public NbacApi,
                         public sim::Listener<qc::QcResult<int>> {
 public:
  /// `inner`: the position of any QC solution hosted in the same
  /// process (typically a PsiQcModule); the FS component is read from
  /// this module's detector source.
  explicit NbacFromQcModule(std::size_t inner) : inner_(inner) {}

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
      // Votes may arrive before this process's own vote/announcement.
      ensure_votes();
      if (!votes_[static_cast<std::size_t>(from)].has_value()) {
        votes_[static_cast<std::size_t>(from)] = m->vote;
        ++votes_received_;
      }
    }
  }

  /// Mirrors the tick's own early-out: none of the three latches is
  /// written by the (tick-insensitive) vote handler, and while any
  /// holds, the tick returns before reading votes or the detector.
  [[nodiscard]] bool tick_noop() const override {
    return !voted_ || decided_ || proposed_;
  }

  void on_tick() override {
    if (!voted_ || decided_ || proposed_) return;
    if (!announced_) {
      // Line 1: send v to all.
      announced_ = true;
      ensure_votes();
      if (!votes_[static_cast<std::size_t>(self())].has_value()) {
        votes_[static_cast<std::size_t>(self())] = my_vote_;
        ++votes_received_;
      }
      broadcast(sim::make_payload<VoteMsg>(my_vote_), /*include_self=*/false);
      return;
    }
    // Line 2: wait until all votes received or FS = red.
    const bool all_votes = votes_received_ == n();
    const auto v = detector();
    const bool red =
        v.fs.has_value() && *v.fs == fd::FsColor::kRed;
    if (!all_votes && !red) return;
    // Lines 3-6: propose 1 iff everyone voted Yes.
    int proposal = 0;
    if (all_votes) {
      proposal = 1;
      for (const auto& vote : votes_) {
        if (*vote == Vote::kNo) proposal = 0;
      }
    }
    proposed_ = true;
    host().module_at<qc::QcApi<int>>(inner_).propose(proposal, hook());
  }

  /// The QC instance decided `r`.
  void on_result(std::uint64_t, const qc::QcResult<int>& r) override {
    // Lines 8-11: Commit iff the decision is 1.
    finish((!r.quit && r.value == 1) ? Decision::kCommit : Decision::kAbort);
  }

  [[nodiscard]] bool copy_to(
      std::unique_ptr<sim::Module>& slot) const override {
    sim::copy_into(*this, slot);
    return true;
  }

  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("voted", voted_);
    enc.field("announced", announced_);
    enc.field("proposed", proposed_);
    enc.field("my-vote", my_vote_);
    for (std::size_t p = 0; p < votes_.size(); ++p) {
      // Slot p is *process p's* vote: scope by the renamable identity.
      enc.push_proc("vote-of", static_cast<ProcessId>(p));
      sim::encode_field(enc, "vote", votes_[p]);
      enc.pop();
    }
    enc.field("votes-received", votes_received_);
    enc.field("decided", decided_);
    enc.field("decision", decision_);
  }

 private:
  // Votes commute with each other: the handler is a sender-keyed
  // write-once slot update, and every process broadcasts at most one
  // vote (the announced_ latch), so the all-n gate on the tick side can
  // only trip after the *last* vote of any pending pair — with the FS-red
  // early exit proposing 0 independently of which partial votes arrived.
  struct VoteMsg final : sim::Payload {
    explicit VoteMsg(Vote v) : vote(v) {}
    Vote vote;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "vote");
      enc.field("vote", vote);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "nbac.vote";
    }
    [[nodiscard]] bool commutes_with(const sim::Payload& other)
        const override {
      return sim::payload_cast<VoteMsg>(other) != nullptr;
    }
    /// The slot update reads neither the clock nor the detector (the
    /// FS read sits in on_tick) and emits no trace events.
    [[nodiscard]] bool tick_insensitive() const override { return true; }
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

  std::size_t inner_;  ///< The QC module's position.
  bool voted_ = false;
  bool announced_ = false;
  bool proposed_ = false;
  Vote my_vote_ = Vote::kYes;
  sim::Hook done_;
  std::vector<std::optional<Vote>> votes_;
  int votes_received_ = 0;
  bool decided_ = false;
  Decision decision_ = Decision::kAbort;
};

}  // namespace wfd::nbac
