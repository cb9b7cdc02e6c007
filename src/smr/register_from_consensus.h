// Atomic registers from consensus, via state-machine replication
// (Lamport [17], Schneider [21]) — the substrate behind Corollary 3:
// any detector D that solves consensus can implement registers, hence
// (by Theorem 1) D can be transformed into Sigma.
//
// A replicated log of commands is agreed slot by slot with one consensus
// instance per slot; read and write operations are both commands (reads
// must be ordered in the log for linearizability). Clients broadcast
// commands into every replica's pending pool, each replica proposes the
// oldest pending command for the next slot (announcing the slot so idle
// replicas join as acceptors/proposers), and each replica applies
// decided slots in order; a client's operation completes when its own
// command is applied.
//
// Generic in the stored value type V (copyable + default-constructible +
// equality-comparable), so the Figure 1 extraction can run over
// consensus-backed registers holding quorum lists.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "common/check.h"
#include "consensus/omega_sigma_consensus.h"
#include "reg/register_api.h"
#include "sim/module.h"

namespace wfd::smr {

/// A register command; NoOp slots (client == kNoProcess) keep the log
/// moving when a replica has nothing to propose. Identity (and log
/// dedup) is (client, op_id); the value plays no role in ordering.
template <typename V>
struct BasicRegCommand {
  ProcessId client = kNoProcess;
  std::uint64_t op_id = 0;
  bool is_write = false;
  V value{};

  [[nodiscard]] bool is_noop() const { return client == kNoProcess; }
  [[nodiscard]] std::pair<ProcessId, std::uint64_t> key() const {
    return {client, op_id};
  }
  friend bool operator==(const BasicRegCommand& a, const BasicRegCommand& b) {
    return a.key() == b.key();
  }
  friend bool operator<(const BasicRegCommand& a, const BasicRegCommand& b) {
    return a.key() < b.key();
  }

  void encode_state(sim::StateEncoder& enc) const {
    enc.field("client", client);
    enc.field("op-id", op_id);
    enc.field("is-write", is_write);
    sim::encode_field(enc, "value", value);
  }
};

/// Listens to each slot's decided command (the hook's tag is the slot).
template <typename V>
class BasicSmrRegisterModule : public sim::Module,
                               public reg::RegisterApi<V>,
                               public sim::Listener<BasicRegCommand<V>> {
 public:
  using RegCommand = BasicRegCommand<V>;
  using SlotConsensus = consensus::OmegaSigmaConsensusModule<RegCommand>;

  void write(const V& v, sim::Hook done = {}) override {
    WFD_CHECK_MSG(!busy(), "one SMR register operation at a time");
    done_ = done;
    RegCommand cmd;
    cmd.client = kPendingSelf;
    cmd.op_id = next_op_id_++;
    cmd.is_write = true;
    cmd.value = v;
    submit(cmd);
  }

  void read(sim::Hook done = {}) override {
    WFD_CHECK_MSG(!busy(), "one SMR register operation at a time");
    done_ = done;
    RegCommand cmd;
    cmd.client = kPendingSelf;
    cmd.op_id = next_op_id_++;
    cmd.is_write = false;
    submit(cmd);
  }

  [[nodiscard]] bool busy() const override {
    return own_pending_.has_value();
  }

  /// Replica state after all applied slots (for tests).
  [[nodiscard]] const V& replica_value() const { return value_; }
  [[nodiscard]] std::uint64_t applied_slots() const { return applied_; }

  void on_message(ProcessId, const sim::Payload& msg) override {
    if (const auto* m = sim::payload_cast<CommandMsg>(msg)) {
      if (applied_cmds_.count(m->cmd.key()) == 0) pool_.insert(m->cmd);
      return;
    }
    if (const auto* m = sim::payload_cast<AnnounceSlot>(msg)) {
      ensure_slot(m->slot);
      return;
    }
  }

  void on_tick() override {
    if (unannounced_ && own_pending_.has_value()) {
      unannounced_ = false;
      // The client id can only be resolved inside a step.
      own_pending_->client = self();
      pool_.erase(RegCommand{*own_pending_});
      pool_.insert(*own_pending_);
      broadcast(sim::make_payload<CommandMsg>(*own_pending_),
                /*include_self=*/false);
    }
    drive_log();
  }

  [[nodiscard]] bool done() const override { return !busy(); }

  /// Slot `slot` decided `cmd`.
  void on_result(std::uint64_t slot, const RegCommand& cmd) override {
    decisions_.emplace(slot, cmd);
    apply_ready_slots();
    drive_log();  // Keep the log moving while an operation is in flight.
  }

  void encode_state(sim::StateEncoder& enc) const override {
    sim::encode_field(enc, "value", value_);
    enc.field("applied", applied_);
    enc.field("next-op-id", next_op_id_);
    sim::encode_field(enc, "own-pending", own_pending_);
    enc.field("unannounced", unannounced_);
    sim::encode_field(enc, "pool", pool_);
    for (const auto& key : applied_cmds_) {
      sim::StateEncoder sub = enc.child();
      sub.field("client", key.first);
      sub.field("op-id", key.second);
      enc.merge("applied-cmd", sub);
    }
    for (const auto& [slot, cmd] : decisions_) {
      enc.push("decision", slot);
      sim::encode_field(enc, "cmd", cmd);
      enc.pop();
    }
    sim::encode_field(enc, "joined", joined_);
  }

 private:
  /// Sentinel until self() is known (first tick after submit).
  static constexpr ProcessId kPendingSelf = kMaxProcesses + 1;

  // Equal commands commute (set insert is idempotent, so the second of
  // the pair is a no-op in either order). Distinct commands do not: the
  // tick between the pair may join a fresh slot and propose
  // pick_proposal(), which reads pool_ — a receipt-order-sensitive read.
  struct CommandMsg final : sim::Payload {
    explicit CommandMsg(RegCommand c) : cmd(std::move(c)) {}
    RegCommand cmd;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "command");
      sim::encode_field(enc, "cmd", cmd);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "smr.command";
    }
    [[nodiscard]] bool commutes_with(const sim::Payload& other)
        const override {
      const auto* o = sim::payload_cast<CommandMsg>(other);
      return o != nullptr && cmd == o->cmd;
    }
  };
  // Equal-slot announcements commute via the joined_ guard; distinct
  // slots spawn their consensus instance at order-dependent steps (the
  // instance's first tick reads the detector at the spawn step).
  struct AnnounceSlot final : sim::Payload {
    explicit AnnounceSlot(std::uint64_t s) : slot(s) {}
    std::uint64_t slot;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "announce-slot");
      enc.field("slot", slot);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "smr.announce-slot";
    }
    [[nodiscard]] bool commutes_with(const sim::Payload& other)
        const override {
      const auto* o = sim::payload_cast<AnnounceSlot>(other);
      return o != nullptr && slot == o->slot;
    }
  };

  void submit(RegCommand cmd) {
    own_pending_ = std::move(cmd);
    unannounced_ = true;
  }

  void drive_log() {
    if (!busy() || unannounced_) return;
    // Join the first slot that is neither applied nor decided here;
    // earlier joined-but-undecided slots finish via their own instances.
    std::uint64_t k = applied_;
    while (decisions_.count(k) != 0) ++k;
    ensure_slot(k);
  }

  [[nodiscard]] RegCommand pick_proposal() const {
    for (const RegCommand& c : pool_) {
      if (applied_cmds_.count(c.key()) == 0) return c;
    }
    return RegCommand{};  // NoOp.
  }

  void ensure_slot(std::uint64_t slot) {
    if (joined_.count(slot) != 0) return;
    joined_.insert(slot);
    auto& inst = host().template add_module<SlotConsensus>(
        name() + "/slot/" + std::to_string(slot));
    broadcast(sim::make_payload<AnnounceSlot>(slot), /*include_self=*/false);
    inst.propose(pick_proposal(), hook(slot));
  }

  void apply_ready_slots() {
    for (;;) {
      auto it = decisions_.find(applied_);
      if (it == decisions_.end()) return;
      const RegCommand cmd = it->second;
      decisions_.erase(it);
      ++applied_;
      if (cmd.is_noop() || !applied_cmds_.insert(cmd.key()).second) continue;
      pool_.erase(cmd);
      if (cmd.is_write) value_ = cmd.value;
      if (own_pending_.has_value() && cmd == *own_pending_) {
        own_pending_.reset();
        // A write's command has just set value_ to the written value.
        notify(std::exchange(done_, {}), value_);
      }
    }
  }

  V value_{};
  std::uint64_t applied_ = 0;  ///< Slots [0, applied_) are applied.
  std::uint64_t next_op_id_ = 1;

  std::optional<RegCommand> own_pending_;
  bool unannounced_ = false;
  sim::Hook done_;  ///< The operation in flight's listener.

  std::set<RegCommand> pool_;  ///< Known, not-yet-applied commands.
  std::set<std::pair<ProcessId, std::uint64_t>> applied_cmds_;
  std::map<std::uint64_t, RegCommand> decisions_;
  std::set<std::uint64_t> joined_;  ///< Slots whose module exists here.
};

/// The int64-valued register used by the SMR tests and benches.
using SmrRegisterModule = BasicSmrRegisterModule<std::int64_t>;
using RegCommand = BasicRegCommand<std::int64_t>;

}  // namespace wfd::smr
