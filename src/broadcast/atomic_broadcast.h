// Atomic (total-order) broadcast from consensus — Chandra-Toueg [4],
// Section 4 there: the constructive half of "atomic broadcast and
// consensus are equivalent", and the engine behind Lamport/Schneider
// state-machine replication [17, 21] that Corollary 3 leans on.
//
// Messages are disseminated with uniform reliable broadcast; ordering is
// agreed in rounds: in round k every participant proposes its current
// set of URB-delivered-but-unordered messages to consensus instance k,
// and everyone TO-delivers the decided batch (minus what it already
// delivered) in deterministic (origin, seq) order. Sequential rounds
// plus consensus agreement give a common delivery prefix at all
// processes; URB's agreement plus round repetition give liveness for
// every message a correct process broadcasts.
//
// The consensus instances run on (Omega, Sigma) by default (so the whole
// stack works in any environment), or on whatever FdSource is wired in.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "broadcast/app_message.h"
#include "broadcast/reliable_broadcast.h"
#include "common/check.h"
#include "consensus/omega_sigma_consensus.h"
#include "sim/module.h"

namespace wfd::broadcast {

/// Listens to its URB module's deliveries and to each round's decided
/// Batch (the hook's tag is the round).
class AtomicBroadcastModule : public sim::Module,
                              public sim::Listener<AppMessage>,
                              public sim::Listener<std::vector<AppMessage>> {
 public:
  using Batch = std::vector<AppMessage>;
  using RoundConsensus = consensus::OmegaSigmaConsensusModule<Batch>;

  /// The standing listener (a sim::Listener<AppMessage>) every
  /// TO-delivery is reported to, within the delivering step.
  void set_deliver(sim::Hook deliver) { deliver_ = deliver; }

  /// Totally-ordered broadcast; may be called outside a step.
  void abcast(std::int64_t body) { ensure_urb().urb_broadcast(body); }

  /// The TO-delivered sequence so far (a prefix-consistent log across
  /// all processes).
  [[nodiscard]] const std::vector<AppMessage>& delivered_log() const {
    return log_;
  }
  [[nodiscard]] std::uint64_t rounds_completed() const { return round_; }

  /// False while messages are known but not yet ordered (keeps runs
  /// alive until the log drains).
  [[nodiscard]] bool done() const override { return unordered_.empty(); }

  void on_start() override { ensure_urb(); }

  void on_message(ProcessId, const sim::Payload& msg) override {
    if (const auto* m = sim::payload_cast<AnnounceRound>(msg)) {
      join_round(m->round);
    }
  }

  void on_tick() override {
    // Start/advance ordering rounds whenever something awaits ordering.
    if (!unordered_.empty() && joined_.count(round_) == 0) {
      join_round(round_);
      broadcast(sim::make_payload<AnnounceRound>(round_),
                /*include_self=*/false);
    }
  }

  void encode_state(sim::StateEncoder& enc) const override {
    for (const AppMessage& m : unordered_) {
      sim::StateEncoder sub = enc.child();
      m.encode_state(sub);
      enc.merge("unordered", sub);
    }
    for (const AppMessage& m : ordered_) {
      sim::StateEncoder sub = enc.child();
      m.encode_state(sub);
      enc.merge("ordered", sub);
    }
    sim::encode_field(enc, "log", log_);
    enc.field("round", round_);
    for (const std::uint64_t k : joined_) {
      sim::StateEncoder sub = enc.child();
      sub.field("k", k);
      enc.merge("joined", sub);
    }
    for (const auto& [k, batch] : decisions_) {
      sim::StateEncoder sub = enc.child();
      sub.field("k", k);
      sim::encode_field(sub, "batch", batch);
      enc.merge("decision", sub);
    }
  }

  [[nodiscard]] bool copy_to(
      std::unique_ptr<sim::Module>& slot) const override {
    sim::copy_into(*this, slot);
    return true;
  }

  /// URB delivered `m`: it awaits ordering unless already ordered.
  void on_result(std::uint64_t, const AppMessage& m) override {
    if (ordered_.count(m) == 0) unordered_.insert(m);
  }

  /// Round `k` decided `decided`; rounds are applied strictly in order.
  void on_result(std::uint64_t k, const Batch& decided) override {
    decisions_[k] = decided;
    for (;;) {
      auto it = decisions_.find(round_);
      if (it == decisions_.end()) return;
      Batch batch = it->second;
      decisions_.erase(it);
      ++round_;
      std::sort(batch.begin(), batch.end());
      for (const AppMessage& m : batch) {
        if (!ordered_.insert(m).second) continue;  // Already TO-delivered.
        unordered_.erase(m);
        log_.push_back(m);
        notify(deliver_, m);
      }
    }
  }

 private:
  // Equal-round announcements commute: join_round's joined_ guard makes
  // the second of the pair a strict no-op. Distinct rounds do not — the
  // spawned consensus instance's first tick reads the detector at the
  // spawn step, a receipt-time read that the pair's order shifts.
  struct AnnounceRound final : sim::Payload {
    explicit AnnounceRound(std::uint64_t r) : round(r) {}
    std::uint64_t round;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "announce-round");
      enc.field("round", round);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "ab.announce";
    }
    [[nodiscard]] bool commutes_with(const sim::Payload& other)
        const override {
      const auto* o = sim::payload_cast<AnnounceRound>(other);
      return o != nullptr && round == o->round;
    }
  };

  UrbModule& ensure_urb() {
    if (urb_ == sim::Hook::kNone) {
      auto& urb = host().add_module<UrbModule>(name() + "/urb");
      urb.set_deliver(hook());
      urb_ = urb.index();
    }
    return host().module_at<UrbModule>(urb_);
  }

  void join_round(std::uint64_t k) {
    if (!joined_.insert(k).second) return;
    auto& inst = host().template add_module<RoundConsensus>(
        name() + "/round/" + std::to_string(k));
    inst.propose(Batch(unordered_.begin(), unordered_.end()), hook(k));
  }

  std::size_t urb_ = sim::Hook::kNone;  ///< The URB module's position.
  sim::Hook deliver_;
  std::set<AppMessage> unordered_;  ///< URB-delivered, not yet ordered.
  std::set<AppMessage> ordered_;
  std::vector<AppMessage> log_;
  std::uint64_t round_ = 0;  ///< Next round to apply.
  std::set<std::uint64_t> joined_;
  std::map<std::uint64_t, Batch> decisions_;
};

}  // namespace wfd::broadcast
