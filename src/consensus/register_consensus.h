// Consensus from atomic registers plus Omega (Lo-Hadzilacos [19]) —
// the construction behind Corollary 2: implement registers out of Sigma
// (Theorem 1), then consensus out of registers and Omega.
//
// The shared-memory protocol is single-decree Disk-Paxos-style
// (one single-writer "ballot block" register per process):
//
//   leader p, owned round r:
//     phase 1: write own block with mbal = r; read all n blocks;
//              abort if any block joined a round > r; otherwise adopt the
//              value of the highest-ballot accepted block (or p's own
//              proposal if none);
//     phase 2: write own block with bal = r and the adopted value;
//              read all n blocks again; abort if any block joined a
//              round > r; otherwise the value is decided.
//
// Leadership is gated by Omega, and an aborted/stalled attempt retries
// with a higher owned round, so after Omega stabilises a single correct
// leader drives an attempt that no one disturbs, and it terminates.
// Deciders announce the decision with one broadcast.
//
// The registers themselves are the library's ABD modules, so the full
// stack exercised here is: Sigma -> atomic registers -> (+ Omega)
// consensus, in any environment.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "consensus/consensus_api.h"
#include "reg/abd_register.h"
#include "sim/module.h"

namespace wfd::consensus {

/// Contents of one process's ballot-block register.
template <typename V>
struct BallotBlock {
  std::uint64_t mbal = 0;  ///< Highest round the owner has joined.
  std::uint64_t bal = 0;   ///< Round of the accepted value.
  std::optional<V> val;    ///< Accepted value, if any.
  std::optional<V> decided;

  void encode_state(sim::StateEncoder& enc) const {
    enc.field("mbal", mbal);
    enc.field("bal", bal);
    sim::encode_field(enc, "val", val);
    sim::encode_field(enc, "decided", decided);
  }
};

template <typename V>
class RegisterConsensusModule : public sim::Module,
                                public ConsensusApi<V>,
                                public sim::Listener<BallotBlock<V>> {
 public:
  using Register = reg::AbdRegisterModule<BallotBlock<V>>;

  struct Options {
    /// Own-step stall threshold before a leader retries; 0 = 64 * n
    /// (register operations take several message delays each).
    Time retry_interval = 0;
  };

  /// `registers[j]`: the position in this host of process j's
  /// ballot-block register (a Register, or any other RegisterApi).
  explicit RegisterConsensusModule(std::vector<std::size_t> registers)
      : RegisterConsensusModule(std::move(registers), Options{}) {}

  RegisterConsensusModule(std::vector<std::size_t> registers, Options opt)
      : opt_(opt), regs_(std::move(registers)) {
    WFD_CHECK(!regs_.empty());
  }

  void propose(const V& value, sim::Hook done = {}) override {
    WFD_CHECK_MSG(!proposed_, "propose called twice");
    proposed_ = true;
    proposal_ = value;
    if (decided_) {
      // A Decide broadcast may have arrived before the local propose.
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

  void on_message(ProcessId, const sim::Payload& msg) override {
    if (const auto* m = sim::payload_cast<DecideMsg>(msg)) {
      decide(m->value);
    }
  }

  void on_tick() override {
    if (!proposed_ || decided_ || in_flight_) return;
    WFD_CHECK_MSG(static_cast<int>(regs_.size()) == n(),
                  "one ballot-block register per process required");
    const auto v = detector();
    if (!v.omega.has_value() || *v.omega != self()) {
      stall_ = 0;
      return;
    }
    if (attempt_active_) {
      const Time retry = opt_.retry_interval != 0
                             ? opt_.retry_interval
                             : static_cast<Time>(64 * n());
      if (++stall_ >= retry) attempt_active_ = false;
      return;
    }
    start_attempt();
  }

  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("proposed", proposed_);
    sim::encode_field(enc, "proposal", proposal_);
    sim::encode_field(enc, "block", block_);
    enc.field("attempt-active", attempt_active_);
    enc.field("in-flight", in_flight_);
    enc.field("attempt", attempt_);
    enc.field("round", round_);
    enc.field("max-seen", max_seen_);
    enc.field("stall", stall_);
    enc.field("best-bal", best_bal_);
    sim::encode_field(enc, "best-val", best_val_);
    sim::encode_field(enc, "chosen", chosen_);
    enc.field("decided", decided_);
    sim::encode_field(enc, "decision", decision_);
  }

 private:
  // Like OmegaSigmaConsensus's Decide: decide() is an idempotent latch
  // that ignores the sender, so equal-value decisions commute.
  struct DecideMsg final : sim::Payload {
    explicit DecideMsg(V v) : value(std::move(v)) {}
    V value;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "decide");
      sim::encode_field(enc, "value", value);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "regcons.decide";
    }
    [[nodiscard]] bool commutes_with(const sim::Payload& other)
        const override {
      const auto* o = sim::payload_cast<DecideMsg>(other);
      if (o == nullptr) return false;
      if constexpr (std::equality_comparable<V>) {
        return value == o->value;
      } else {
        return false;
      }
    }
  };

  [[nodiscard]] std::uint64_t next_own_round(std::uint64_t after) const {
    const std::uint64_t nn = static_cast<std::uint64_t>(n());
    return (after / nn + 1) * nn + static_cast<std::uint64_t>(self());
  }

  /// Process j's ballot-block register.
  [[nodiscard]] reg::RegisterApi<BallotBlock<V>>& reg_of(int j) const {
    return host().template module_at<reg::RegisterApi<BallotBlock<V>>>(
        regs_[static_cast<std::size_t>(j)]);
  }

  /// A register operation's hook: tag (attempt << 16) | (phase << 8) | k,
  /// where k is 0 for our block's write that opens the phase's scan and
  /// j + 1 for the scan's read of block j. Phase 3 writes the decision.
  void access(std::uint64_t a, int phase, int k) {
    in_flight_ = true;
    const sim::Hook done = hook((a << 16) |
                                (static_cast<std::uint64_t>(phase) << 8) |
                                static_cast<std::uint64_t>(k));
    if (k == 0) {
      reg_of(self()).write(block_, done);
    } else {
      reg_of(k - 1).read(done);
    }
  }

  void on_result(std::uint64_t tag, const BallotBlock<V>& b) override {
    in_flight_ = false;
    const std::uint64_t a = tag >> 16;
    const int phase = static_cast<int>((tag >> 8) & 0xff);
    const int k = static_cast<int>(tag & 0xff);
    if (a != attempt_) return;
    if (phase == 3) {
      broadcast(sim::make_payload<DecideMsg>(chosen_));
      decide(chosen_);
      return;
    }
    if (decided_) return;
    if (k == 0) {
      best_bal_ = 0;
      best_val_.reset();
    } else if (b.decided.has_value()) {
      // Someone already decided; adopt and announce.
      broadcast(sim::make_payload<DecideMsg>(*b.decided));
      decide(*b.decided);
      return;
    } else if (b.mbal > round_) {
      max_seen_ = std::max(max_seen_, b.mbal);
      attempt_active_ = false;  // Lost the round; retry higher.
      return;
    } else if (b.val.has_value() && b.bal > best_bal_) {
      best_bal_ = b.bal;
      best_val_ = b.val;
    }
    // Sequentially read blocks 0..n-1; then finish the phase.
    if (k < n()) {
      access(a, phase, k + 1);
    } else if (phase == 1) {
      finish_phase1(a);
    } else {
      finish_phase2(a);
    }
  }

  void start_attempt() {
    round_ = next_own_round(std::max(round_, max_seen_));
    max_seen_ = round_;
    ++attempt_;
    attempt_active_ = true;
    stall_ = 0;

    // Phase 1 write: join round `round_` on our own block.
    block_.mbal = round_;
    access(attempt_, 1, 0);
  }

  void finish_phase1(std::uint64_t a) {
    // Adopt the highest accepted value seen, or our own proposal.
    chosen_ = best_val_.has_value() ? *best_val_ : proposal_;
    block_.mbal = round_;
    block_.bal = round_;
    block_.val = chosen_;
    access(a, 2, 0);
  }

  void finish_phase2(std::uint64_t a) {
    // No higher round interfered between our two scans: decided.
    block_.decided = chosen_;
    access(a, 3, 0);
  }

  void decide(const V& v) {
    if (decided_) return;
    decided_ = true;
    decision_ = v;
    attempt_active_ = false;
    emit("decide", decide_event_value(decision_));
    notify(std::exchange(done_, {}), decision_);
  }

  Options opt_;
  std::vector<std::size_t> regs_;  ///< Positions of the n registers.

  bool proposed_ = false;
  V proposal_{};
  sim::Hook done_;

  BallotBlock<V> block_;  ///< Our own block's latest written contents.
  bool attempt_active_ = false;
  bool in_flight_ = false;
  std::uint64_t attempt_ = 0;
  std::uint64_t round_ = 0;
  std::uint64_t max_seen_ = 0;
  Time stall_ = 0;
  std::uint64_t best_bal_ = 0;
  std::optional<V> best_val_;
  V chosen_{};

  bool decided_ = false;
  V decision_{};
};

}  // namespace wfd::consensus
