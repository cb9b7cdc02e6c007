// Uniform reliable broadcast (URB), detector-free, any environment.
//
// Echo algorithm: on the first receipt of a message, relay it to
// everyone and deliver it. Because a step is atomic (the relay happens
// in the same step as the delivery), even a process that crashes right
// after delivering has already relayed — so if ANY process delivers m,
// every correct process eventually receives and delivers m: uniform
// agreement. Validity (a correct broadcaster's messages get delivered
// everywhere) and integrity (each message delivered at most once, and
// only if broadcast) follow from reliable links and (origin, seq)
// deduplication.
//
// This is the dissemination substrate under the atomic broadcast module.
#pragma once

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "broadcast/app_message.h"
#include "common/check.h"
#include "sim/module.h"

namespace wfd::broadcast {

class UrbModule : public sim::Module {
 public:
  /// The standing listener (a sim::Listener<AppMessage>) every delivery
  /// is reported to, within the delivering step.
  void set_deliver(sim::Hook deliver) { deliver_ = deliver; }

  /// Broadcast a new message; may be called outside a step. Returns the
  /// message's sequence number at this origin.
  std::uint64_t urb_broadcast(std::int64_t body) {
    AppMessage m;
    m.origin = kNoProcess;  // Resolved to self() at the sending tick.
    m.seq = next_seq_++;
    m.body = body;
    outbox_.push_back(m);
    return m.seq;
  }

  /// A queued broadcast is work that must keep the run alive until the
  /// sending tick, or an abcast issued before the first step would let
  /// the simulator halt with every module trivially done.
  [[nodiscard]] bool done() const override { return outbox_.empty(); }

  /// The tick only drains the outbox, which no message handler touches:
  /// with an empty outbox the tick is a no-op on either side of any
  /// delivery.
  [[nodiscard]] bool tick_noop() const override { return outbox_.empty(); }

  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_n_; }
  [[nodiscard]] const std::vector<AppMessage>& delivered_log() const {
    return log_;
  }

  void on_message(ProcessId, const sim::Payload& msg) override {
    if (const auto* e = sim::payload_cast<Echo>(msg)) {
      handle(e->message);
    }
  }

  void on_tick() override {
    while (!outbox_.empty()) {
      AppMessage m = outbox_.front();
      outbox_.erase(outbox_.begin());
      m.origin = self();
      handle(m);  // Relays to all and delivers locally, atomically.
    }
  }

  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("next-seq", next_seq_);
    sim::encode_field(enc, "outbox", outbox_);
    for (const auto& [origin, seq] : seen_) {
      sim::StateEncoder sub = enc.child();
      sub.field("origin", origin);
      sub.field("seq", seq);
      enc.merge("seen", sub);
    }
    sim::encode_field(enc, "log", log_);
    enc.field("delivered", delivered_n_);
  }

  [[nodiscard]] bool copy_to(
      std::unique_ptr<sim::Module>& slot) const override {
    sim::copy_into(*this, slot);
    return true;
  }

 private:
  // Echoes of the *same* app message commute: handle() dedups on
  // (origin, seq), so the second of the pair is a strict no-op in either
  // order. Distinct messages do not — their log_/delivery order flips.
  struct Echo final : sim::Payload {
    explicit Echo(AppMessage m) : message(m) {}
    AppMessage message;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.push("echo");
      message.encode_state(enc);
      enc.pop();
    }
    [[nodiscard]] std::string_view kind() const override {
      return "rb.echo";
    }
    [[nodiscard]] bool commutes_with(const sim::Payload& other)
        const override {
      const auto* o = sim::payload_cast<Echo>(other);
      return o != nullptr && message == o->message;
    }
    /// handle() reads neither the clock nor the detector and emits no
    /// trace events, so an echo also commutes with inert lambda steps.
    [[nodiscard]] bool tick_insensitive() const override { return true; }
  };

  void handle(const AppMessage& m) {
    if (!seen_.insert(std::make_pair(m.origin, m.seq)).second) return;
    // Relay first (same atomic step), then deliver: whoever delivers has
    // relayed — this is what makes agreement uniform.
    broadcast(sim::make_payload<Echo>(m), /*include_self=*/false);
    log_.push_back(m);
    ++delivered_n_;
    notify(deliver_, m);
  }

  sim::Hook deliver_;
  std::uint64_t next_seq_ = 1;
  std::vector<AppMessage> outbox_;
  std::set<std::pair<ProcessId, std::uint64_t>> seen_;
  std::vector<AppMessage> log_;
  std::uint64_t delivered_n_ = 0;
};

}  // namespace wfd::broadcast
