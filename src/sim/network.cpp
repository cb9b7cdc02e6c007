#include "sim/network.h"

#include <algorithm>

#include "common/check.h"

namespace wfd::sim {

namespace {

constexpr std::uint8_t kTaken = 0xff;

StateEncoder::Partial encode_payload(const Envelope& env) {
  StateEncoder enc;
  if (env.payload != nullptr) env.payload->encode_state(enc);
  return enc.partial();
}

}  // namespace

std::uint64_t Network::send(Envelope env) {
  WFD_CHECK(env.to >= 0 && env.to < kMaxProcesses);
  env.id = next_id_++;
  const auto to = static_cast<std::size_t>(env.to);
  if (queues_.size() <= to) queues_.resize(to + 1);
  Queue& q = queues_[to];
  q.index.push_back(Pending{env.id, env.from});
  q.slots.push_back(Slot{std::move(env), std::nullopt});
  receiver_.push_back(static_cast<std::uint8_t>(to));
  ++size_;
  if (in_flight_.has_value()) {
    const StateEncoder::Partial term = in_flight_term(q.slots.back());
    in_flight_->sum += term.sum;
    if (!term.complete) ++in_flight_->opaque;
  }
  return q.index.back().id;
}

const std::vector<Network::Pending>& Network::pending(ProcessId p) const {
  static const std::vector<Pending> kNone;
  const auto to = static_cast<std::size_t>(p);
  return p >= 0 && to < queues_.size() ? queues_[to].index : kNone;
}

std::optional<Network::Where> Network::find(std::uint64_t id) const {
  if (id < first_id_ || id >= next_id_) return std::nullopt;
  const std::uint8_t to = receiver_[id - first_id_];
  if (to == kTaken) return std::nullopt;
  const std::vector<Pending>& index = queues_[to].index;
  const auto it = std::lower_bound(
      index.begin(), index.end(), id,
      [](const Pending& e, std::uint64_t want) { return e.id < want; });
  WFD_CHECK(it != index.end() && it->id == id);
  return Where{to, static_cast<std::size_t>(it - index.begin())};
}

const Envelope& Network::get(std::uint64_t id) const {
  const std::optional<Where> w = find(id);
  WFD_CHECK(w.has_value());
  return queues_[w->to].slots[w->pos].env;
}

Envelope Network::take(std::uint64_t id) {
  const std::optional<Where> w = find(id);
  WFD_CHECK(w.has_value());
  Queue& q = queues_[w->to];
  const auto pos = static_cast<std::ptrdiff_t>(w->pos);
  if (in_flight_.has_value()) {
    const StateEncoder::Partial term = in_flight_term(q.slots[w->pos]);
    in_flight_->sum -= term.sum;
    if (!term.complete) --in_flight_->opaque;
  }
  Envelope env = std::move(q.slots[w->pos].env);
  q.index.erase(q.index.begin() + pos);
  q.slots.erase(q.slots.begin() + pos);
  --size_;
  receiver_[id - first_id_] = kTaken;
  // Keep the window starting at a pending id: only taking the oldest
  // one exposes a taken prefix.
  if (id == first_id_) {
    std::size_t dead = 1;
    while (dead < receiver_.size() && receiver_[dead] == kTaken) ++dead;
    receiver_.erase(receiver_.begin(),
                    receiver_.begin() + static_cast<std::ptrdiff_t>(dead));
    first_id_ += dead;
  }
  return env;
}

const StateEncoder::Partial& Network::content(std::uint64_t id) const {
  const std::optional<Where> w = find(id);
  WFD_CHECK(w.has_value());
  return content_of(queues_[w->to].slots[w->pos]);
}

const StateEncoder::Partial& Network::content_of(const Slot& s) {
  if (!s.content.has_value()) {
    s.content = encode_payload(s.env);
  } else {
#ifndef NDEBUG
    WFD_CHECK_MSG(encode_payload(s.env) == *s.content,
                  "payload encoding changed after send");
#endif
  }
  return *s.content;
}

StateEncoder::Partial Network::in_flight_term(const Slot& s) {
  StateEncoder sub;
  sub.pid_field("from", s.env.from);
  sub.pid_field("to", s.env.to);
  sub.add(content_of(s));
  StateEncoder term;
  term.merge("in-flight", sub);
  return term.partial();
}

Network::InFlight Network::fold_in_flight() const {
  InFlight fold;
  for (const Queue& q : queues_) {
    for (const Slot& s : q.slots) {
      const StateEncoder::Partial term = in_flight_term(s);
      fold.sum += term.sum;
      if (!term.complete) ++fold.opaque;
    }
  }
  return fold;
}

void Network::encode_state(StateEncoder& enc) const {
  if (enc.renamed()) {
    for (const Queue& q : queues_) {
      for (const Slot& s : q.slots) {
        StateEncoder sub = enc.child();
        sub.pid_field("from", s.env.from);
        sub.pid_field("to", s.env.to);
        if (s.env.payload != nullptr) s.env.payload->encode_state(sub);
        enc.merge("in-flight", sub);
      }
    }
    return;
  }
  if (!in_flight_.has_value()) {
    in_flight_ = fold_in_flight();
  } else {
#ifndef NDEBUG
    WFD_CHECK_MSG(fold_in_flight() == *in_flight_,
                  "kept in-flight fold drifted from the pending messages");
#endif
  }
  enc.add(StateEncoder::Partial{in_flight_->sum, size_,
                                in_flight_->opaque == 0});
}

}  // namespace wfd::sim
