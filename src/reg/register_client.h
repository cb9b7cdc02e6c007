// Workload drivers for register tests and benches: each client module
// issues a scripted or randomized sequence of reads/writes against a
// register module hosted in the same process, and records every
// operation (with virtual invocation/response times) into a shared
// History that the linearizability checker consumes afterwards.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "reg/register_api.h"
#include "sim/module.h"

namespace wfd::reg {

/// One completed (or pending, if the client crashed mid-flight)
/// register operation, as observed at the client.
struct OpRecord {
  ProcessId client = kNoProcess;
  bool is_write = false;
  std::int64_t value = 0;  ///< Written value, or value returned by a read.
  Time invoked = 0;
  Time responded = kNever;  ///< kNever while pending.
  /// The op's index among its client's ops (0 for the client's first):
  /// an identity that does not depend on how clients interleave.
  std::uint64_t client_seq = 0;
};

/// Shared log of operations across all clients of one register.
class History {
 public:
  /// Returns the record index for later completion.
  std::size_t invoke(ProcessId client, bool is_write, std::int64_t value,
                     Time at);
  void respond(std::size_t index, Time at, std::int64_t read_value);

  [[nodiscard]] const std::vector<OpRecord>& ops() const { return ops_; }
  [[nodiscard]] std::size_t completed() const;

 private:
  std::vector<OpRecord> ops_;
};

/// A client issuing `num_ops` operations, alternating write/read or
/// randomized, then reporting done. Values written are unique per client
/// (client id in the low bits) so the checker can distinguish writes.
class RegisterWorkloadModule : public sim::Module,
                               public sim::Listener<std::int64_t> {
 public:
  struct Options {
    int num_ops = 8;
    /// Probability (percent) that an op is a write; 50 by default.
    int write_percent = 50;
    /// Delay (own steps) between consecutive operations.
    Time think_time = 0;
  };

  /// `target`: the position in this host of the register to drive (a
  /// RegisterApi<std::int64_t>).
  RegisterWorkloadModule(std::size_t target, History* history, Options opt);

  void on_message(ProcessId, const sim::Payload&) override {}
  void on_tick() override;
  [[nodiscard]] bool done() const override { return ops_issued_ >= opt_.num_ops && !in_flight_; }

  /// The tick early-outs while an op is in flight or the script is
  /// spent. in_flight_ only changes in completion hooks driven by
  /// reply deliveries — which are not tick-insensitive — so the verdict
  /// is stable across every delivery the explorer may commute with.
  [[nodiscard]] bool tick_noop() const override {
    return in_flight_ || ops_issued_ >= opt_.num_ops;
  }

  void encode_state(sim::StateEncoder& enc) const override {
    if (opt_.write_percent > 0 && opt_.write_percent < 100) {
      // The read/write mix draws from the per-process RNG, whose state
      // is not encoded; only the deterministic 0/100 settings are
      // fingerprintable.
      enc.opaque("randomized-workload");
      return;
    }
    enc.field("ops-issued", ops_issued_);
    enc.field("in-flight", in_flight_);
    enc.field("idle", idle_ticks_);
    enc.field("next-value", next_value_);
  }

  /// The operation tagged with its History index completed: records
  /// the response time (and a read's value) into the History.
  void on_result(std::uint64_t tag, const std::int64_t& value) override;

  [[nodiscard]] bool copy_to(
      std::unique_ptr<sim::Module>& slot) const override {
    sim::copy_into(*this, slot);
    return true;
  }

  /// The History through `map` (its owner, e.g.
  /// RegisterAtomicityInvariant, records it).
  [[nodiscard]] bool relink(const sim::CloneMap& map) override {
    history_ = map.find(history_);
    return history_ != nullptr;
  }

  [[nodiscard]] Time first_op_time() const { return first_op_time_; }
  [[nodiscard]] Time last_response_time() const { return last_response_time_; }

 private:
  void issue_next();

  std::size_t target_;
  History* history_;
  Options opt_;
  int ops_issued_ = 0;
  bool in_flight_ = false;
  Time idle_ticks_ = 0;
  std::uint64_t next_value_ = 1;
  Time first_op_time_ = kNever;
  Time last_response_time_ = 0;
};

}  // namespace wfd::reg
