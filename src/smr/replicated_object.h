// Replicated objects from atomic broadcast — Lamport's state-machine
// approach [17] as generalised by Schneider [21], in the exact role the
// paper's Corollary 3 uses it: "by using consensus we can implement any
// object".
//
// The object is defined by a deterministic transition function
// apply(state-op). Commands are atomic-broadcast; every replica applies
// the common total order, so all replicas traverse the same state
// sequence; the submitting replica resolves its callback with the
// result its own command produced at its ordered position —
// linearizability for free.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "broadcast/atomic_broadcast.h"
#include "common/check.h"
#include "sim/module.h"

namespace wfd::smr {

/// Listens to its abcast module's TO-deliveries.
class ReplicatedObjectModule : public sim::Module,
                               public sim::Listener<broadcast::AppMessage> {
 public:
  /// Deterministic transition: (command) -> result, mutating captured
  /// state. Every process must install the same function.
  using ApplyFn = std::function<std::int64_t(std::int64_t command)>;
  using ResultCb = std::function<void(std::int64_t result)>;

  explicit ReplicatedObjectModule(ApplyFn apply) : apply_(std::move(apply)) {
    WFD_CHECK(apply_ != nullptr);
  }

  /// Submit a command; cb receives the result of applying it at its
  /// position in the total order. May be called outside a step.
  void submit(std::int64_t command, ResultCb cb) {
    pending_.emplace_back(command, std::move(cb));
  }

  [[nodiscard]] std::uint64_t applied_count() const { return applied_; }
  [[nodiscard]] bool done() const override {
    return pending_.empty() && inflight_.empty();
  }

  void on_start() override { ensure_abcast(); }
  void on_message(ProcessId, const sim::Payload&) override {}

  /// The object's state itself lives behind apply_ but is a deterministic
  /// function of the applied prefix of the abcast total order, which the
  /// abcast module encodes — so folding the counters suffices.
  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("has-abcast", ab_ != sim::Hook::kNone);
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      enc.push("pending", i);
      enc.field("cmd", pending_[i].first);
      enc.pop();
    }
    for (const auto& entry : inflight_) {
      sim::StateEncoder sub = enc.child();
      sub.field("seq", entry.first);
      enc.merge("inflight", sub);
    }
    enc.field("next-seq", next_seq_);
    enc.field("applied", applied_);
  }

  /// The abcast module TO-delivered `m`: apply it, and resolve this
  /// replica's own command with its result.
  void on_result(std::uint64_t, const broadcast::AppMessage& m) override {
    const std::int64_t result = apply_(m.body);
    ++applied_;
    if (m.origin != self()) return;
    auto it = inflight_.find(m.seq);
    if (it == inflight_.end()) return;
    auto cb = std::move(it->second);
    inflight_.erase(it);
    if (cb) cb(result);
  }

  void on_tick() override {
    if (pending_.empty()) return;
    auto& ab = ensure_abcast();
    while (!pending_.empty()) {
      auto [cmd, cb] = std::move(pending_.front());
      pending_.erase(pending_.begin());
      // The abcast module stamps (origin=self, seq) on the message; we
      // mirror its sequence numbering to match results to callbacks.
      inflight_.emplace(next_seq_++, std::move(cb));
      ab.abcast(cmd);
    }
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

  ApplyFn apply_;
  std::size_t ab_ = sim::Hook::kNone;  ///< The abcast module's position.
  std::vector<std::pair<std::int64_t, ResultCb>> pending_;
  std::map<std::uint64_t, ResultCb> inflight_;
  std::uint64_t next_seq_ = 1;  ///< Mirrors UrbModule's numbering.
  std::uint64_t applied_ = 0;
};

}  // namespace wfd::smr
