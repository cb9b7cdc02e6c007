// Sigma "ex nihilo" in majority-correct environments (paper, Section 1):
// each process periodically sends join-quorum messages and takes as its
// current quorum any majority of processes that responded. Any two
// majorities intersect; once the faulty processes have crashed, every
// fresh quorum consists only of correct responders (plus the sampler
// itself), so completeness holds.
//
// This module is the constructive content of the remark that in
// majority-correct environments "we 'need' something that we can get for
// free": registers (and with Omega, consensus) are possible there with no
// oracle at all.
#pragma once

#include <cstdint>

#include "common/process_set.h"
#include "sim/module.h"

namespace wfd::fd {

class SigmaMajorityModule : public sim::Module, public sim::FdSource {
 public:
  struct Options {
    /// Own-step period between join-quorum rounds; 0 = 4 * n (keeps the
    /// heartbeat load below the scheduler's delivery capacity).
    Time period = 0;
  };

  SigmaMajorityModule() : SigmaMajorityModule(Options{}) {}
  explicit SigmaMajorityModule(Options opt) : opt_(opt) {}

  void on_start() override;
  void on_message(ProcessId from, const sim::Payload& msg) override;
  void on_tick() override;

  /// FdSource: sigma = the latest formed quorum. Starts as the full set,
  /// which intersects every majority.
  [[nodiscard]] FdValue fd_value() const override;

  [[nodiscard]] ProcessSet current_quorum() const { return quorum_; }

  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("ticks-since-round", ticks_since_round_);
    enc.field("seq", seq_);
    enc.field("round-done", round_done_);
    enc.field("responders", responders_);
    enc.field("quorum", quorum_);
  }

 private:
  void start_round();

  Options opt_;
  Time period_ = 0;
  Time ticks_since_round_ = 0;
  std::uint64_t seq_ = 0;     ///< Current join round.
  bool round_done_ = false;   ///< Round seq_ has formed its quorum.
  ProcessSet responders_;     ///< Acks collected for round seq_.
  ProcessSet quorum_;         ///< Latest formed quorum.
};

}  // namespace wfd::fd
