// The message buffer: the set of messages that have been sent but not yet
// received. Links are reliable (messages to correct processes are
// eventually delivered — enforced by the schedulers) with finite but
// unbounded, variable delay.
//
// Messages are indexed by recipient so scheduler queries cost O(pending
// for that process), not O(all pending) — long runs accumulate
// undeliverable messages addressed to crashed processes, which must not
// slow down the rest of the system. Each receiver keeps one vector of
// {id, sender} in send order — exactly what a schedule menu reads — and
// a parallel vector of the envelopes. Ids are dense, so a small window
// maps an id to its receiver without hashing.
//
// Each pending message also caches the encoding of its payload (see
// content()): payloads are immutable once sent, so the encoding is
// computed at most once per message, and only when something reads it.
// Once the in-flight fold has been read, the network keeps it current
// as messages come and go (encode_state).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.h"
#include "sim/envelope.h"
#include "sim/state_encoder.h"

namespace wfd::sim {

class Network {
 public:
  /// One pending message as its receiver's queue lists it.
  struct Pending {
    std::uint64_t id = 0;
    ProcessId from = kNoProcess;
  };

  /// Enqueue a message; assigns its unique id. Returns the id.
  std::uint64_t send(Envelope env);

  /// Messages pending for p, oldest first. The view is invalidated by
  /// the next send or take.
  [[nodiscard]] const std::vector<Pending>& pending(ProcessId p) const;

  /// Whether any message is pending for p.
  [[nodiscard]] bool has_pending(ProcessId p) const {
    return !pending(p).empty();
  }

  /// Oldest pending message id for p, or 0 when none.
  [[nodiscard]] std::uint64_t oldest_for(ProcessId p) const {
    const std::vector<Pending>& q = pending(p);
    return q.empty() ? 0 : q.front().id;
  }

  /// Access a pending message by id; asserts that it exists.
  [[nodiscard]] const Envelope& get(std::uint64_t id) const;

  /// Whether a pending message with this id exists.
  [[nodiscard]] bool contains(std::uint64_t id) const {
    return find(id).has_value();
  }

  /// Remove a delivered message.
  Envelope take(std::uint64_t id);

  /// Total pending messages.
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Total messages ever sent through this network.
  [[nodiscard]] std::uint64_t total_sent() const { return next_id_ - 1; }

  /// The payload encoding of pending message `id` under the identity
  /// renaming, as a root-scope partial: what `payload->encode_state`
  /// folds into a fresh StateEncoder. Computed on first read and kept
  /// until the message is taken, which is exact because a payload does
  /// not change after it is sent; builds without NDEBUG (the sanitizer
  /// presets among them) recompute it on every read and check that.
  [[nodiscard]] const StateEncoder::Partial& content(std::uint64_t id) const;

  /// Fold the in-flight multiset into `enc`, a root-scope encoder: one
  /// "in-flight" sub-digest per message over its sender, receiver and
  /// payload. Order-insensitive. Under the identity renaming the fold
  /// is a kept sum: computed on the first read, then updated by every
  /// send and take (the combine is a wrapping sum, so subtracting a
  /// taken message's term is exact); builds without NDEBUG recompute it
  /// on every read and check that. Under a renaming every message is
  /// re-encoded.
  void encode_state(StateEncoder& enc) const;

  /// Visit every pending message (unspecified order).
  template <typename F>
  void for_each_pending(F&& f) const {
    for (const Queue& q : queues_) {
      for (const Slot& s : q.slots) f(s.env);
    }
  }

 private:
  struct Slot {
    Envelope env;
    /// content(), once read.
    mutable std::optional<StateEncoder::Partial> content;
  };
  /// One receiver's pending messages in send order (ascending ids);
  /// `index` and `slots` are parallel.
  struct Queue {
    std::vector<Pending> index;
    std::vector<Slot> slots;
  };
  struct Where {
    std::size_t to;
    std::size_t pos;
  };

  /// The identity-renaming fold of the in-flight multiset.
  struct InFlight {
    std::uint64_t sum = 0;
    /// Messages whose payload encoding is incomplete: the fold is
    /// complete exactly when none is pending.
    std::size_t opaque = 0;
    bool operator==(const InFlight&) const = default;
  };

  /// Receiver queue and position of pending message `id`.
  [[nodiscard]] std::optional<Where> find(std::uint64_t id) const;
  [[nodiscard]] static const StateEncoder::Partial& content_of(const Slot& s);
  /// Message s's "in-flight" term at root scope (count 1).
  [[nodiscard]] static StateEncoder::Partial in_flight_term(const Slot& s);
  [[nodiscard]] InFlight fold_in_flight() const;

  std::uint64_t next_id_ = 1;
  std::size_t size_ = 0;
  std::vector<Queue> queues_;  ///< By receiver; grown on first send.
  /// receiver_[id - first_id_]: the receiver of message id, or kTaken.
  /// The window starts at the oldest id whose message may be pending.
  std::vector<std::uint8_t> receiver_;
  std::uint64_t first_id_ = 1;
  /// The in-flight fold, kept current once encode_state first read it.
  mutable std::optional<InFlight> in_flight_;
};

}  // namespace wfd::sim
