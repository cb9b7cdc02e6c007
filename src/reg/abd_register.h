// Fault-tolerant atomic (linearizable) register in message passing,
// following Attiya-Bar-Noy-Dolev [1] with the generalisation at the heart
// of Theorem 1: wherever ABD waits for a majority of replies, this module
// waits until the set of repliers contains a quorum output by Sigma.
// Because any two Sigma outputs intersect (at any processes and times),
// every read quorum intersects every write quorum, which yields
// atomicity; because Sigma outputs at correct processes eventually
// contain only correct processes, every operation by a correct process
// terminates — in ANY environment. With QuorumRule::kMajority the module
// degrades to classical ABD, which is live only when a majority is
// correct (the negative-control tests and bench E1 exhibit the blocked
// minority-correct executions).
//
// The register is multi-writer multi-reader: timestamps are
// (counter, writer-id) pairs ordered lexicographically, and reads
// write back the value they return before returning it (the classical
// [16, 23] transformations folded into one module).
//
// Every process hosting this module is simultaneously a server (stores a
// replica) and a client (may invoke read/write). One operation may be in
// flight per module instance at a time.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/process_set.h"
#include "reg/register_api.h"
#include "sim/module.h"
#include "sim/payload.h"

namespace wfd::reg {

/// Logical timestamp: (counter, writer id), ordered lexicographically.
struct Stamp {
  std::uint64_t counter = 0;
  ProcessId writer = kNoProcess;

  friend bool operator==(const Stamp&, const Stamp&) = default;
  friend auto operator<=>(const Stamp& a, const Stamp& b) {
    if (auto c = a.counter <=> b.counter; c != 0) return c;
    return a.writer <=> b.writer;
  }

  void encode_state(sim::StateEncoder& enc) const {
    enc.field("counter", counter);
    enc.pid_field("writer", writer);
  }
};

enum class QuorumRule {
  kSigma,     ///< Replier set must contain a quorum output by Sigma.
  kMajority,  ///< Replier set must be a strict majority (classical ABD).
};

template <typename V>
class AbdRegisterModule : public sim::Module, public RegisterApi<V> {
 public:
  struct Options {
    QuorumRule rule = QuorumRule::kSigma;
    V initial = V{};
    /// When false, reads skip the write-back phase: the register is then
    /// only *regular* (a read concurrent with a write may return either
    /// value, and two sequential reads may observe a new-old inversion).
    /// Ablation knob for the "reads must write" design point.
    bool atomic_reads = true;
  };

  AbdRegisterModule() : AbdRegisterModule(Options{}) {}
  explicit AbdRegisterModule(Options opt)
      : opt_(opt), value_(opt.initial) {}

  void write(const V& v, sim::Hook done = {}) override {
    WFD_CHECK_MSG(!busy_, "one register operation at a time per module");
    busy_ = true;
    ++op_;
    pending_is_write_ = true;
    pending_value_ = v;
    done_ = done;
    phase_ = 0;  // Phase 1 broadcast happens on the next tick.
  }

  void read(sim::Hook done = {}) override {
    WFD_CHECK_MSG(!busy_, "one register operation at a time per module");
    busy_ = true;
    ++op_;
    pending_is_write_ = false;
    done_ = done;
    phase_ = 0;
  }

  [[nodiscard]] bool busy() const override { return busy_; }

  /// Operations completed by this module as a client.
  [[nodiscard]] std::uint64_t completed_ops() const { return completed_; }

  /// Local replica state (server side); exposed for tests.
  [[nodiscard]] const V& replica_value() const { return value_; }
  [[nodiscard]] Stamp replica_stamp() const { return stamp_; }

  void on_message(ProcessId from, const sim::Payload& msg) override {
    if (const auto* m = sim::payload_cast<Phase1Req>(msg)) {
      send(from, sim::make_payload<Phase1Rep>(m->op, stamp_, value_));
      return;
    }
    if (const auto* m = sim::payload_cast<Phase2Req>(msg)) {
      if (stamp_ < m->stamp) {
        stamp_ = m->stamp;
        value_ = m->value;
      }
      send(from, sim::make_payload<Phase2Ack>(m->op));
      return;
    }
    if (const auto* m = sim::payload_cast<Phase1Rep>(msg)) {
      if (!busy_ || m->op != op_ || phase_ != 1) return;
      repliers_.insert(from);
      if (best_stamp_ < m->stamp) {
        best_stamp_ = m->stamp;
        best_value_ = m->value;
      }
      maybe_finish_phase();
      return;
    }
    if (const auto* m = sim::payload_cast<Phase2Ack>(msg)) {
      if (!busy_ || m->op != op_ || phase_ != 2) return;
      repliers_.insert(from);
      maybe_finish_phase();
      return;
    }
  }

  void on_tick() override {
    if (!busy_) return;
    if (phase_ == 0) {
      begin_phase1();
      return;
    }
    // Quorum membership can be satisfied by a *fresh* Sigma output even
    // without new replies, so re-check every step.
    maybe_finish_phase();
  }

  /// Idle as a client => the tick is a no-op, and the server-side
  /// request handlers (the tick-insensitive payloads below) never touch
  /// busy_, so the verdict holds on either side of such a delivery.
  [[nodiscard]] bool tick_noop() const override { return !busy_; }

  [[nodiscard]] bool copy_to(
      std::unique_ptr<sim::Module>& slot) const override {
    sim::copy_into(*this, slot);
    return true;
  }

  void encode_state(sim::StateEncoder& enc) const override {
    sim::encode_field(enc, "value", value_);
    sim::encode_field(enc, "stamp", stamp_);
    enc.field("busy", busy_);
    enc.field("op", op_);
    enc.field("phase", phase_);
    enc.field("is-write", pending_is_write_);
    sim::encode_field(enc, "pending-value", pending_value_);
    sim::encode_field(enc, "phase2-value", phase2_value_);
    sim::encode_field(enc, "best-stamp", best_stamp_);
    sim::encode_field(enc, "best-value", best_value_);
    enc.field("repliers", repliers_);
    enc.field("completed", completed_);
  }

 private:
  // Phase-1 probes from concurrent operations commute regardless of
  // their op tags: the server handler is a stateless snapshot reply
  // (op, stamp_, value_) whose content the probe pair cannot change.
  struct Phase1Req final : sim::Payload {
    explicit Phase1Req(std::uint64_t o) : op(o) {}
    std::uint64_t op;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "p1req");
      enc.field("op", op);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "reg.p1req";
    }
    [[nodiscard]] bool commutes_with(const sim::Payload& other)
        const override {
      return sim::payload_cast<Phase1Req>(other) != nullptr;
    }
    /// The snapshot reply reads neither the clock nor the detector and
    /// emits no trace events.
    [[nodiscard]] bool tick_insensitive() const override { return true; }
  };
  // Audited non-commuting: the client's quorum check runs inside the
  // handler, so whichever reply completes it fixes the replier snapshot,
  // the best-stamp fold and the step at which phase 2 starts.
  struct Phase1Rep final : sim::Payload {
    Phase1Rep(std::uint64_t o, Stamp s, V v)
        : op(o), stamp(s), value(std::move(v)) {}
    std::uint64_t op;
    Stamp stamp;
    V value;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "p1rep");
      enc.field("op", op);
      sim::encode_field(enc, "stamp", stamp);
      sim::encode_field(enc, "value", value);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "reg.p1rep";
    }
  };
  // Phase-2 write-throughs commute when their stamps differ (the replica
  // keeps the lexicographic max, a commutative fold, and each ack's
  // content is fixed by its own request). Equal stamps carry equal
  // values in every reachable run — stamps embed the writer id — but the
  // contract only claims what it can check.
  struct Phase2Req final : sim::Payload {
    Phase2Req(std::uint64_t o, Stamp s, V v)
        : op(o), stamp(s), value(std::move(v)) {}
    std::uint64_t op;
    Stamp stamp;
    V value;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "p2req");
      enc.field("op", op);
      sim::encode_field(enc, "stamp", stamp);
      sim::encode_field(enc, "value", value);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "reg.p2req";
    }
    [[nodiscard]] bool commutes_with(const sim::Payload& other)
        const override {
      const auto* o = sim::payload_cast<Phase2Req>(other);
      if (o == nullptr) return false;
      if (stamp != o->stamp) return true;
      if constexpr (std::equality_comparable<V>) {
        return value == o->value;
      } else {
        return false;
      }
    }
    /// The max-fold + ack reads neither the clock nor the detector and
    /// emits no trace events.
    [[nodiscard]] bool tick_insensitive() const override { return true; }
  };
  // Audited non-commuting: in-handler quorum check, like Phase1Rep.
  struct Phase2Ack final : sim::Payload {
    explicit Phase2Ack(std::uint64_t o) : op(o) {}
    std::uint64_t op;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "p2ack");
      enc.field("op", op);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "reg.p2ack";
    }
  };

  void begin_phase1() {
    phase_ = 1;
    repliers_ = ProcessSet{};
    // Replica stamps start at Stamp{} and only grow, and a server never
    // changes its value without raising its stamp; so seeding the fold
    // with (Stamp{}, initial) is correct even before any write.
    best_stamp_ = Stamp{};
    best_value_ = opt_.initial;
    broadcast(sim::make_payload<Phase1Req>(op_));
  }

  void begin_phase2(Stamp s, V v) {
    phase_ = 2;
    repliers_ = ProcessSet{};
    phase2_value_ = v;
    broadcast(sim::make_payload<Phase2Req>(op_, s, std::move(v)));
  }

  [[nodiscard]] bool have_quorum() const {
    switch (opt_.rule) {
      case QuorumRule::kMajority:
        return 2 * repliers_.size() > n();
      case QuorumRule::kSigma: {
        const auto v = detector();
        return v.sigma.has_value() && v.sigma->is_subset_of(repliers_);
      }
    }
    return false;
  }

  void maybe_finish_phase() {
    if (!have_quorum()) return;
    if (phase_ == 1) {
      if (pending_is_write_) {
        begin_phase2(Stamp{best_stamp_.counter + 1, self()}, pending_value_);
      } else if (opt_.atomic_reads) {
        // Read: write back the freshest (stamp, value) before returning.
        begin_phase2(best_stamp_, best_value_);
      } else {
        // Regular-register ablation: return without writing back.
        busy_ = false;
        ++completed_;
        notify(std::exchange(done_, {}), best_value_);
      }
      return;
    }
    // Phase 2 complete: the operation is done. A write's phase-2 value
    // is the written one.
    busy_ = false;
    ++completed_;
    notify(std::exchange(done_, {}), phase2_value_);
  }

  Options opt_;

  // Server-side replica.
  V value_;
  Stamp stamp_;

  // Client-side operation state.
  bool busy_ = false;
  std::uint64_t op_ = 0;
  int phase_ = 0;
  bool pending_is_write_ = false;
  V pending_value_{};
  V phase2_value_{};
  Stamp best_stamp_;
  V best_value_{};
  ProcessSet repliers_;
  sim::Hook done_;  ///< The operation in flight's listener.
  std::uint64_t completed_ = 0;
};

}  // namespace wfd::reg
