#include "fd/sigma_majority.h"

#include "sim/payload.h"

namespace wfd::fd {
namespace {

// The handler is a stateless echo (reply JoinAck(seq), no state touched),
// so join requests commute pairwise regardless of their sequence numbers.
struct JoinReq final : sim::Payload {
  explicit JoinReq(std::uint64_t s) : seq(s) {}
  std::uint64_t seq;
  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("kind", "join-req");
    enc.field("seq", seq);
  }
  [[nodiscard]] std::string_view kind() const override {
    return "fd.sigma.join-req";
  }
  [[nodiscard]] bool commutes_with(const sim::Payload& other) const override {
    return sim::payload_cast<JoinReq>(other) != nullptr;
  }
};

// Audited non-commuting: the majority threshold fires inside the handler,
// and the snapshotted quorum (plus the round's tick phase) depends on
// which ack completed it.
struct JoinAck final : sim::Payload {
  explicit JoinAck(std::uint64_t s) : seq(s) {}
  std::uint64_t seq;
  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("kind", "join-ack");
    enc.field("seq", seq);
  }
  [[nodiscard]] std::string_view kind() const override {
    return "fd.sigma.join-ack";
  }
};

}  // namespace

void SigmaMajorityModule::on_start() {
  period_ = (opt_.period != 0) ? opt_.period
                               : static_cast<Time>(4 * n());
  quorum_ = ProcessSet::full(n());
  start_round();
}

void SigmaMajorityModule::start_round() {
  ++seq_;
  round_done_ = false;
  responders_ = ProcessSet{};
  responders_.insert(self());  // A process always reaches itself.
  ticks_since_round_ = 0;
  broadcast(sim::make_payload<JoinReq>(seq_), /*include_self=*/false);
}

void SigmaMajorityModule::on_message(ProcessId from, const sim::Payload& msg) {
  if (const auto* req = sim::payload_cast<JoinReq>(msg)) {
    send(from, sim::make_payload<JoinAck>(req->seq));
    return;
  }
  if (const auto* ack = sim::payload_cast<JoinAck>(msg)) {
    if (ack->seq != seq_ || round_done_) return;  // Stale round.
    responders_.insert(from);
    if (2 * responders_.size() > n()) {
      quorum_ = responders_;
      round_done_ = true;  // Pace the next round from on_tick.
      ticks_since_round_ = 0;
    }
  }
}

void SigmaMajorityModule::on_tick() {
  ++ticks_since_round_;
  if (round_done_) {
    if (ticks_since_round_ >= period_) start_round();
  } else if (ticks_since_round_ >= 64 * period_) {
    // Messages are never lost, so this only guards against long
    // scheduling starvation of the round's broadcast.
    start_round();
  }
}

FdValue SigmaMajorityModule::fd_value() const {
  FdValue v;
  v.sigma = quorum_;
  return v;
}

}  // namespace wfd::fd
