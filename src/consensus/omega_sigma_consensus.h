// Consensus from (Omega, Sigma) in any environment (Corollary 2).
//
// A Paxos-style single-decree protocol in which every "wait for a
// majority" is replaced by "wait until the replier set contains a quorum
// output by Sigma", and leadership is gated by Omega:
//
//  - Safety needs only the intersection property of Sigma: the quorum
//    that accepts a value in round r intersects the quorum probed by any
//    higher round's prepare, so a decided value is locked — in ANY
//    environment, under ANY asynchrony.
//  - Liveness needs Omega's eventual leadership plus Sigma's
//    completeness: eventually a single correct leader retries unopposed
//    and its quorums consist of correct processes, so its round closes.
//
// Rounds are partitioned across processes (round r belongs to process
// r mod n); a leader only starts rounds it owns, and retries with a
// higher owned round when an attempt stalls.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/process_set.h"
#include "consensus/consensus_api.h"
#include "sim/module.h"
#include "sim/payload.h"

namespace wfd::consensus {

/// Where the protocol's quorums come from.
enum class ConsensusQuorumRule {
  kSigma,     ///< Quorums from the Sigma component (any environment).
  kMajority,  ///< Strict majorities — the classical Chandra-Toueg [4]
              ///< setting: live only when a majority is correct, which is
              ///< exactly why Omega alone is weakest only there.
};

/// Rounds are round-robin owned (round = cycle*n + owner with cycle >= 1;
/// 0 is the "no round yet" sentinel). Fingerprints fold them as
/// (cycle, renamed owner) rather than the raw number, so a symmetry
/// renaming maps a run's round numbers exactly the way the renamed
/// execution would have numbered them (sim/state_encoder.h).
inline void encode_round(sim::StateEncoder& enc, std::string_view tag,
                         std::uint64_t round, int n) {
  enc.push(tag);
  if (round == 0 || n <= 0) {
    enc.field("none", true);
  } else {
    enc.field("cycle", round / static_cast<std::uint64_t>(n));
    enc.pid_field(
        "owner", static_cast<ProcessId>(round % static_cast<std::uint64_t>(n)));
  }
  enc.pop();
}

template <typename V>
class OmegaSigmaConsensusModule : public sim::Module, public ConsensusApi<V> {
 public:
  struct Options {
    /// Own-step stall threshold before a leader retries with a higher
    /// round; 0 = 16 * n.
    Time retry_interval = 0;
    ConsensusQuorumRule quorum_rule = ConsensusQuorumRule::kSigma;
    /// Seeded liveness bug (explore/seeded_bug.h): once this process has
    /// started a round and lost it — Nacked by a higher promise, or
    /// stalled past retry_interval — it never starts another. Safety is
    /// untouched (every decided value is still quorum-locked); what
    /// breaks is the retry obligation Omega's eventual leadership is
    /// useless without. Off in every real configuration.
    bool give_up_when_opposed = false;
    /// Seeded liveness bug (explore/seeded_bug.h): a would-be leader
    /// that has promised a round owned by another process defers to
    /// that owner forever instead of preempting it with a higher round
    /// of its own. Harmless while the owner is alive (it retries or
    /// decides), fatal when the owner crashed mid-round: the surviving
    /// new leader waits on a dead process and never starts a round, so
    /// nobody ever decides. Safety is untouched. Off in every real
    /// configuration.
    bool defer_to_promised_owner = false;
  };

  OmegaSigmaConsensusModule() : OmegaSigmaConsensusModule(Options{}) {}
  explicit OmegaSigmaConsensusModule(Options opt) : opt_(opt) {}

  void propose(const V& value, sim::Hook done = {}) override {
    WFD_CHECK_MSG(!proposed_, "propose called twice");
    proposed_ = true;
    proposal_ = value;
    if (decided_) {
      // The decision can precede the local propose: a Decide broadcast
      // may have been replayed when this module instance was created.
      notify(done, decision_);
      return;
    }
    done_ = done;
  }

  [[nodiscard]] bool decided() const override { return decided_; }
  [[nodiscard]] const V& decision() const override {
    WFD_CHECK(decided_);
    return decision_;
  }

  [[nodiscard]] bool done() const override { return !proposed_ || decided_; }

  /// Leader rounds started by this process (protocol cost metric).
  [[nodiscard]] std::uint64_t rounds_started() const { return rounds_; }

  /// True while this process is driving a round it has not yet abandoned
  /// (Omega points here and no Nack/stall has cleared it). Feeds the
  /// "leadership" liveness clause: eventually some alive process leads.
  [[nodiscard]] bool is_leading() const { return leading_; }

  void on_message(ProcessId from, const sim::Payload& msg) override {
    if (decided_) {
      // Late joiners and retrying leaders learn the decision directly.
      if (sim::payload_cast<Prepare>(msg) != nullptr ||
          sim::payload_cast<Accept>(msg) != nullptr) {
        send(from, sim::make_payload<Decide>(decision_));
      }
      return;
    }
    if (const auto* m = sim::payload_cast<Prepare>(msg)) {
      if (m->round > promised_) {
        promised_ = m->round;
        send(from, sim::make_payload<Promise>(m->round, accepted_round_,
                                              accepted_val_, n()));
      } else {
        send(from, sim::make_payload<Nack>(m->round, promised_, n()));
      }
      return;
    }
    if (const auto* m = sim::payload_cast<Promise>(msg)) {
      if (!leading_ || m->round != round_ || phase_ != 1) return;
      repliers_.insert(from);
      if (m->accepted_val.has_value() && m->accepted_round > best_round_) {
        best_round_ = m->accepted_round;
        best_val_ = m->accepted_val;
      }
      maybe_advance();
      return;
    }
    if (const auto* m = sim::payload_cast<Accept>(msg)) {
      if (m->round >= promised_) {
        promised_ = m->round;
        accepted_round_ = m->round;
        accepted_val_ = m->value;
        send(from, sim::make_payload<Accepted>(m->round, n()));
      } else {
        send(from, sim::make_payload<Nack>(m->round, promised_, n()));
      }
      return;
    }
    if (const auto* m = sim::payload_cast<Accepted>(msg)) {
      if (!leading_ || m->round != round_ || phase_ != 2) return;
      repliers_.insert(from);
      maybe_advance();
      return;
    }
    if (const auto* m = sim::payload_cast<Nack>(msg)) {
      if (leading_ && m->round == round_) {
        // Our round lost; remember the competing round and retry later.
        max_seen_ = std::max(max_seen_, m->promised);
        leading_ = false;
      }
      return;
    }
    if (const auto* m = sim::payload_cast<Decide>(msg)) {
      decide(m->value);
      return;
    }
  }

  void on_tick() override {
    if (!proposed_ || decided_) return;
    const auto v = detector();
    if (!v.omega.has_value()) return;
    const bool is_leader = (*v.omega == self());
    if (!is_leader) {
      stall_ = 0;
      return;
    }
    if (leading_) {
      maybe_advance();  // A fresh Sigma sample may complete the phase.
      const Time retry =
          opt_.retry_interval != 0 ? opt_.retry_interval
                                   : static_cast<Time>(16 * n());
      if (++stall_ >= retry) {
        leading_ = false;  // Stalled: give up this round, start a new one.
      }
      return;
    }
    // Seeded liveness bug: a once-burned leader stops retrying, leaving
    // the system in a quiescent undecided state — a fair cycle of no-op
    // steps that fair-cycle search must expose as a lasso.
    if (opt_.give_up_when_opposed && rounds_ > 0) return;
    // Seeded liveness bug: defer forever to the promised round's owner.
    // A leader's own Prepare (broadcast includes self) makes promised_
    // its own round, so a stable leader still retries; the wedge needs
    // the promised owner to crash after its Prepare reached us.
    if (opt_.defer_to_promised_owner && promised_ != 0 &&
        promised_ % static_cast<Round>(n()) !=
            static_cast<Round>(self())) {
      return;
    }
    start_round();
  }

  void on_start() override { enc_n_ = n(); }

  [[nodiscard]] bool copy_to(
      std::unique_ptr<sim::Module>& slot) const override {
    sim::copy_into(*this, slot);
    return true;
  }

  // Uses the process count cached at on_start: the encoder runs outside
  // any step, where the host environment (n()) is unreachable. Before
  // on_start every round member is still 0, which encode_round renders
  // as "none" for any n — so the pre-start encoding is renaming-stable
  // even while the cache still holds 0.
  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("proposed", proposed_);
    sim::encode_field(enc, "proposal", proposal_);
    encode_round(enc, "promised", promised_, enc_n_);
    encode_round(enc, "accepted-round", accepted_round_, enc_n_);
    sim::encode_field(enc, "accepted-val", accepted_val_);
    enc.field("leading", leading_);
    enc.field("phase", phase_);
    encode_round(enc, "round", round_, enc_n_);
    encode_round(enc, "max-seen", max_seen_, enc_n_);
    enc.field("stall", stall_);
    enc.field("repliers", repliers_);
    encode_round(enc, "best-round", best_round_, enc_n_);
    sim::encode_field(enc, "best-val", best_val_);
    sim::encode_field(enc, "chosen", chosen_);
    enc.field("decided", decided_);
    sim::encode_field(enc, "decision", decision_);
  }

 private:
  using Round = std::uint64_t;

  /// Content equality where V supports it; payloads whose value type is
  /// not comparable stay conservatively non-commuting.
  template <typename W>
  [[nodiscard]] static bool values_equal(const W& a, const W& b) {
    if constexpr (std::equality_comparable<W>) {
      return a == b;
    } else {
      (void)a;
      (void)b;
      return false;
    }
  }

  // Audited non-commuting: even two Prepares for the *same* round race —
  // the first one wins a Promise, the second a Nack, so swapping them
  // swaps which sender gets which reply.
  struct Prepare final : sim::Payload {
    Prepare(Round r, int procs) : round(r), n(procs) {}
    Round round;
    int n;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "prepare");
      encode_round(enc, "round", round, n);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "cons.prepare";
    }
  };
  // Audited non-commuting: the leader's phase-1 quorum check runs inside
  // the handler; whichever promise completes it fixes the replier
  // snapshot and the step at which phase 2 starts.
  struct Promise final : sim::Payload {
    Promise(Round r, Round ar, std::optional<V> av, int procs)
        : round(r), accepted_round(ar), accepted_val(std::move(av)),
          n(procs) {}
    Round round;
    Round accepted_round;
    std::optional<V> accepted_val;
    int n;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "promise");
      encode_round(enc, "round", round, n);
      encode_round(enc, "accepted-round", accepted_round, n);
      sim::encode_field(enc, "accepted-val", accepted_val);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "cons.promise";
    }
  };
  // Two identical Accepts (a leader's retry storm) commute: the handler's
  // writes and its Accepted/Nack/Decide reply depend only on the content.
  struct Accept final : sim::Payload {
    Accept(Round r, V v, int procs)
        : round(r), value(std::move(v)), n(procs) {}
    Round round;
    V value;
    int n;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "accept");
      encode_round(enc, "round", round, n);
      sim::encode_field(enc, "value", value);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "cons.accept";
    }
    [[nodiscard]] bool commutes_with(const sim::Payload& other)
        const override {
      const auto* o = sim::payload_cast<Accept>(other);
      return o != nullptr && round == o->round &&
             values_equal(value, o->value);
    }
  };
  // Audited non-commuting: phase-2 quorum check inside the handler.
  struct Accepted final : sim::Payload {
    Accepted(Round r, int procs) : round(r), n(procs) {}
    Round round;
    int n;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "accepted");
      encode_round(enc, "round", round, n);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "cons.accepted";
    }
  };
  // Equal-content Nacks commute (max-merge of the promised round plus an
  // idempotent leading_ reset); different contents race for max_seen_'s
  // intermediate value and the leading_ flag.
  struct Nack final : sim::Payload {
    Nack(Round r, Round p, int procs) : round(r), promised(p), n(procs) {}
    Round round;
    Round promised;
    int n;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "nack");
      encode_round(enc, "round", round, n);
      encode_round(enc, "promised", promised, n);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "cons.nack";
    }
    [[nodiscard]] bool commutes_with(const sim::Payload& other)
        const override {
      const auto* o = sim::payload_cast<Nack>(other);
      return o != nullptr && round == o->round && promised == o->promised;
    }
  };
  // Decisions for one value commute: decide() is an idempotent latch and
  // ignores the sender, so only the first delivery acts — identically in
  // either order.
  struct Decide final : sim::Payload {
    explicit Decide(V v) : value(std::move(v)) {}
    V value;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "decide");
      sim::encode_field(enc, "value", value);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "cons.decide";
    }
    [[nodiscard]] bool commutes_with(const sim::Payload& other)
        const override {
      const auto* o = sim::payload_cast<Decide>(other);
      return o != nullptr && values_equal(value, o->value);
    }
  };

  /// Smallest round owned by self strictly greater than `after`.
  [[nodiscard]] Round next_own_round(Round after) const {
    const Round base = (after / static_cast<Round>(n())) + 1;
    return base * static_cast<Round>(n()) + static_cast<Round>(self());
  }

  void start_round() {
    round_ = next_own_round(std::max({max_seen_, promised_, round_}));
    max_seen_ = round_;
    ++rounds_;
    leading_ = true;
    phase_ = 1;
    stall_ = 0;
    repliers_ = ProcessSet{};
    best_round_ = 0;
    best_val_.reset();
    broadcast(sim::make_payload<Prepare>(round_, n()));
  }

  [[nodiscard]] bool have_quorum() const {
    switch (opt_.quorum_rule) {
      case ConsensusQuorumRule::kMajority:
        return 2 * repliers_.size() > n();
      case ConsensusQuorumRule::kSigma: {
        const auto v = detector();
        return v.sigma.has_value() && v.sigma->is_subset_of(repliers_);
      }
    }
    return false;
  }

  void maybe_advance() {
    if (!leading_ || !have_quorum()) return;
    if (phase_ == 1) {
      phase_ = 2;
      stall_ = 0;
      repliers_ = ProcessSet{};
      const V value = best_val_.has_value() ? *best_val_ : proposal_;
      chosen_ = value;
      broadcast(sim::make_payload<Accept>(round_, value, n()));
      return;
    }
    // Phase 2 closed on a quorum: the value is decided. The broadcast
    // happens in this same atomic step, so every process is informed
    // even if this leader crashes right after.
    broadcast(sim::make_payload<Decide>(chosen_));
    decide(chosen_);
  }

  void decide(const V& v) {
    if (decided_) return;
    decided_ = true;
    decision_ = v;
    leading_ = false;
    emit("decide", decide_event_value(decision_));
    notify(std::exchange(done_, {}), decision_);
  }

  Options opt_;

  /// Process count cached at on_start for encode_state (which runs
  /// outside any step, where n() is unreachable). 0 until started.
  int enc_n_ = 0;

  // Proposer state.
  bool proposed_ = false;
  V proposal_{};
  sim::Hook done_;

  // Acceptor state.
  Round promised_ = 0;
  Round accepted_round_ = 0;
  std::optional<V> accepted_val_;

  // Leader state.
  bool leading_ = false;
  int phase_ = 0;
  Round round_ = 0;
  Round max_seen_ = 0;
  Time stall_ = 0;
  ProcessSet repliers_;
  Round best_round_ = 0;
  std::optional<V> best_val_;
  V chosen_{};
  std::uint64_t rounds_ = 0;

  // Outcome.
  bool decided_ = false;
  V decision_{};
};

}  // namespace wfd::consensus
