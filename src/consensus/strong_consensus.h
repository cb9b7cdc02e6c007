// Consensus from a Strong failure detector S (Chandra-Toueg [4],
// Section 6.1 there) — correct in ANY environment, i.e. with any number
// of crashes. This is the classical pre-(Omega, Sigma) route the paper's
// related work builds on; it needs perpetual weak accuracy, which is a
// far stronger assumption than (Omega, Sigma).
//
// The algorithm has three phases:
//   Phase 1: n-1 asynchronous rounds. In each round every process
//     broadcasts the set of proposals it knows and waits, for every peer
//     q, until it has q's round-r message or suspects q. Relaying for
//     n-1 rounds guarantees that the value sets of all processes that
//     finish phase 1 agree "up to" processes that crashed mid-relay —
//     with the never-suspected process acting as a synchroniser.
//   Phase 2: everyone broadcasts its final set and intersects the sets
//     it manages to collect (again modulo suspicion); the intersections
//     coincide at all processes.
//   Phase 3: decide a deterministic element (the minimum) of the
//     intersection.
//
// Uses FdValue::suspected; run it under StrongOracle or PerfectOracle
// (P is a subclass of S). Under a merely eventually-accurate class
// (<>S), early false suspicions void the relay guarantee — the classic
// boundary the paper's Section 1 recalls.
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "consensus/consensus_api.h"
#include "sim/module.h"
#include "sim/payload.h"

namespace wfd::consensus {

template <typename V>
class StrongConsensusModule : public sim::Module, public ConsensusApi<V> {
 public:
  void propose(const V& value, sim::Hook done = {}) override {
    WFD_CHECK_MSG(!proposed_, "propose called twice");
    proposed_ = true;
    done_ = done;
    values_.insert(value);
  }

  [[nodiscard]] bool decided() const override { return decided_; }
  [[nodiscard]] const V& decision() const override {
    WFD_CHECK(decided_);
    return decision_;
  }
  [[nodiscard]] bool done() const override { return !proposed_ || decided_; }

  void on_message(ProcessId from, const sim::Payload& msg) override {
    ensure_init();  // Messages can precede the first tick (replay).
    if (const auto* m = sim::payload_cast<RoundMsg>(msg)) {
      // Stale or early round messages still contribute values.
      for (const V& v : m->values) values_.insert(v);
      if (m->round < round_flags_.size()) {
        round_flags_[m->round].insert(from);
      }
      return;
    }
    if (const auto* m = sim::payload_cast<SetMsg>(msg)) {
      if (!phase2_sets_[static_cast<std::size_t>(from)].has_value()) {
        phase2_sets_[static_cast<std::size_t>(from)] = m->values;
      }
      return;
    }
  }

  void on_tick() override {
    if (!proposed_ || decided_) return;
    ensure_init();
    const auto v = detector();
    if (!v.suspected.has_value()) return;
    const ProcessSet suspected = *v.suspected;

    if (round_ < static_cast<std::size_t>(n())) {
      // Phase 1, round round_.
      if (!round_sent_) {
        round_sent_ = true;
        broadcast(sim::make_payload<RoundMsg>(
                      static_cast<std::uint32_t>(round_),
                      std::vector<V>(values_.begin(), values_.end())),
                  /*include_self=*/false);
      }
      for (ProcessId q = 0; q < n(); ++q) {
        if (q == self()) continue;
        if (round_flags_[round_].count(q) == 0 && !suspected.contains(q)) {
          return;  // Still waiting on q.
        }
      }
      ++round_;
      round_sent_ = false;
      return;
    }

    // Phase 2.
    if (!phase2_sent_) {
      phase2_sent_ = true;
      phase2_sets_[static_cast<std::size_t>(self())] =
          std::vector<V>(values_.begin(), values_.end());
      broadcast(sim::make_payload<SetMsg>(
                    std::vector<V>(values_.begin(), values_.end())),
                /*include_self=*/false);
    }
    for (ProcessId q = 0; q < n(); ++q) {
      if (q == self()) continue;
      if (!phase2_sets_[static_cast<std::size_t>(q)].has_value() &&
          !suspected.contains(q)) {
        return;
      }
    }
    // Phase 3: intersect the collected sets; decide the minimum.
    std::set<V> inter = values_;
    for (ProcessId q = 0; q < n(); ++q) {
      const auto& sq = phase2_sets_[static_cast<std::size_t>(q)];
      if (!sq.has_value()) continue;
      std::set<V> next;
      for (const V& x : *sq) {
        if (inter.count(x) != 0) next.insert(x);
      }
      inter = std::move(next);
    }
    WFD_CHECK_MSG(!inter.empty(), "phase-2 intersection is empty");
    decided_ = true;
    decision_ = *inter.begin();
    emit("decide", decide_event_value(decision_));
    notify(std::exchange(done_, {}), decision_);
  }

  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("proposed", proposed_);
    enc.field("initialized", initialized_);
    sim::encode_field(enc, "values", values_);
    enc.field("round", round_);
    enc.field("round-sent", round_sent_);
    sim::encode_field(enc, "round-flags", round_flags_);
    enc.field("phase2-sent", phase2_sent_);
    sim::encode_field(enc, "phase2-sets", phase2_sets_);
    enc.field("decided", decided_);
    sim::encode_field(enc, "decision", decision_);
  }

 private:
  // Audited non-commuting: the round/decision waits are suspicion-gated
  // ("heard from p or p is suspected"), so a single delivery of a pair
  // can unblock a tick-side transition whose merged value set depends on
  // which message arrived first.
  struct RoundMsg final : sim::Payload {
    RoundMsg(std::uint32_t r, std::vector<V> v)
        : round(r), values(std::move(v)) {}
    std::uint32_t round;
    std::vector<V> values;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "round");
      enc.field("round", round);
      sim::encode_field(enc, "values", values);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "scons.round";
    }
  };
  // Audited non-commuting, same gating as RoundMsg.
  struct SetMsg final : sim::Payload {
    explicit SetMsg(std::vector<V> v) : values(std::move(v)) {}
    std::vector<V> values;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "set");
      sim::encode_field(enc, "values", values);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "scons.set";
    }
  };

  void ensure_init() {
    if (initialized_) return;
    initialized_ = true;
    // Rounds are 1..n-1; index 0 is unused.
    round_flags_.assign(static_cast<std::size_t>(n()), {});
    phase2_sets_.assign(static_cast<std::size_t>(n()), std::nullopt);
    round_ = 1;
  }

  bool proposed_ = false;
  bool initialized_ = false;
  sim::Hook done_;
  std::set<V> values_;
  std::size_t round_ = 1;
  bool round_sent_ = false;
  std::vector<std::set<ProcessId>> round_flags_;
  bool phase2_sent_ = false;
  std::vector<std::optional<std::vector<V>>> phase2_sets_;
  bool decided_ = false;
  V decision_{};
};

}  // namespace wfd::consensus
