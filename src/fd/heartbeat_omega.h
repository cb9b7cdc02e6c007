// An implementable Omega: heartbeat timeouts plus a leader lease, for
// partially synchronous systems (the classic ◇-leader-election recipe of
// Aguilera et al. / the TLA+ EPFailureDetector lineage).
//
// Every process broadcasts a heartbeat every `period` host time units
// and suspects a peer whose heartbeats stop arriving within an adaptive
// per-peer timeout; a heartbeat from a suspected peer un-suspects it and
// doubles that peer's timeout, so after GST false suspicions die out.
// The candidate leader is the smallest trusted id; the candidate claims
// leadership by broadcasting a *lease* and re-claims while it still
// considers itself candidate. Followers output the lease holder while
// the lease is fresh and fall back to their local candidate when it
// expires — the lease adds hysteresis so transient suspicion flaps do
// not flap the emitted leader, which directly bounds failover time:
// after a leader crash the next leader emerges within
// (timeout + lease + period) host time units.
//
// All deadlines are in *host time* (ModuleHost::now()), not in a
// process's own steps, so the same module is Omega for the simulator
// (time = step index; model-checkable by the explorer, scenario
// "omega-impl"; the leader-election example and the oracle-free
// consensus test run it under partial synchrony) and for the runtime
// host (time = milliseconds on the monotonic clock; the detector behind
// the replicated KV service). In fully asynchronous runs the output may
// oscillate forever — the Chandra-Toueg impossibility boundary.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/process_set.h"
#include "sim/module.h"

namespace wfd::fd {

class HeartbeatOmegaModule : public sim::Module, public sim::FdSource {
 public:
  struct Options {
    /// Host time units between heartbeats.
    Time period = 8;
    /// Initial per-peer timeout; doubles on each false suspicion.
    Time timeout = 32;
    /// Lease length. Claims are refreshed after half a lease, so a
    /// healthy leader's lease never lapses at correct followers once
    /// delays are below lease/2.
    Time lease = 64;
    /// Emit an "omega-leader" trace event whenever the emitted leader
    /// changes (consumed by the model-checking scenario and tests).
    bool emit_leader_changes = true;
  };

  HeartbeatOmegaModule() : HeartbeatOmegaModule(Options{}) {}
  explicit HeartbeatOmegaModule(Options opt);

  void on_start() override;
  void on_message(ProcessId from, const sim::Payload& msg) override;
  void on_tick() override;
  /// A failure detector is a service: it never terminates on its own.
  /// (Keeps simulator runs of scenario "omega-impl" alive to the
  /// horizon; the runtime host stops processes explicitly.)
  [[nodiscard]] bool done() const override { return false; }

  /// FdSource: omega = the current lease holder while the lease is
  /// fresh, else the smallest trusted id.
  [[nodiscard]] FdValue fd_value() const override;

  /// The leader this process currently emits.
  [[nodiscard]] ProcessId current_leader() const { return emitted_; }
  [[nodiscard]] ProcessSet suspected() const;

  /// Number of (re-)suspicions so far; stabilisation means this stops
  /// growing.
  [[nodiscard]] std::uint64_t suspicion_count() const { return suspicions_; }
  /// Number of changes of the emitted leader; lease hysteresis keeps
  /// this far below the suspicion flap count.
  [[nodiscard]] std::uint64_t leader_changes() const { return changes_; }

  /// All deadlines are folded relative to the latest observed host time
  /// so equal futures hash equally regardless of when they were reached.
  void encode_state(sim::StateEncoder& enc) const override;

  [[nodiscard]] bool copy_to(
      std::unique_ptr<sim::Module>& slot) const override {
    sim::copy_into(*this, slot);
    return true;
  }

 private:
  struct Beat;
  struct Claim;

  [[nodiscard]] ProcessId candidate() const;
  void refresh_suspicions(Time t);
  void set_emitted(ProcessId leader);

  Options opt_;
  ProcessId self_id_ = kNoProcess;
  int n_cached_ = 0;
  Time observed_ = 0;   ///< Latest host time seen (for encode_state).
  Time next_beat_ = 0;
  std::vector<Time> last_heard_;  ///< Host time of the last beat per peer.
  std::vector<Time> timeout_;    ///< Current timeout per peer (adaptive).
  std::vector<bool> suspected_;
  ProcessId lease_holder_ = kNoProcess;
  Time lease_until_ = 0;
  ProcessId emitted_ = kNoProcess;  ///< The leader fd_value() reports.
  std::uint64_t suspicions_ = 0;
  std::uint64_t changes_ = 0;
};

}  // namespace wfd::fd
