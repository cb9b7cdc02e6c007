// Extracting Sigma from any register implementation (Figure 1 — the
// necessity half of Theorem 1).
//
// Given n atomic registers Reg_0..Reg_{n-1} implemented by some
// algorithm A using some detector D (any of the library's register
// modules: Sigma-ABD, majority-ABD, or the consensus-backed SMR
// register), every process p_i runs forever:
//
//   k := k+1
//   Reg_i.write(k, E_i)            // E_i = {P_i(0)=Pi, P_i(1), ...}
//   P_i(k) := participants of the write   (causal tracking)
//   E_i := E_i  U  {P_i(k)};  F_i := P_i(k-1)
//   for j = 0..n-1:  L_j := Reg_j.read()
//       for each X in L_j: probe X, wait for one reply p_t; F_i += p_t
//   Sigma-output_i := F_i
//
// Intersection of any two emulated quorums follows from atomicity of the
// registers (each process writes before it reads the others);
// completeness holds because after the last crash both the participant
// sets of fresh writes and the probe repliers are correct processes.
// Every probed set contains at least one correct process (otherwise a
// read after its members crashed could not return the corresponding
// write), so the extraction never blocks.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/process_set.h"
#include "extract/participant_tracker.h"
#include "reg/register_api.h"
#include "sim/module.h"
#include "sim/trace.h"

namespace wfd::extract {

/// The register value written by process i: its current E_i (the list of
/// participant sets of its writes so far; index 0 is Pi).
using QuorumList = std::vector<ProcessSet>;

/// Runs over any register implementation (ABD over Sigma, ABD over
/// majorities, SMR-backed) through reg::RegisterApi, and listens to its
/// operations' completions.
class SigmaExtractionModule : public sim::Module,
                              public sim::FdSource,
                              public sim::Listener<QuorumList> {
 public:
  struct Options {
    /// Record a Sigma-output sample every so many own steps (0 = 8).
    Time sample_period = 0;
  };

  /// `registers[j]` is the position in this host of Reg_j (a
  /// reg::RegisterApi<QuorumList>); `tracker` must be installed as the
  /// host's transport instrument; `sink` (optional) receives periodic
  /// FdSampleRecords of the emulated output for history checking.
  SigmaExtractionModule(std::vector<std::size_t> registers,
                        ParticipantTracker* tracker,
                        std::vector<sim::FdSampleRecord>* sink)
      : SigmaExtractionModule(std::move(registers), tracker, sink,
                              Options{}) {}

  SigmaExtractionModule(std::vector<std::size_t> registers,
                        ParticipantTracker* tracker,
                        std::vector<sim::FdSampleRecord>* sink, Options opt)
      : opt_(opt),
        regs_(std::move(registers)),
        tracker_(tracker),
        sink_(sink) {
    WFD_CHECK(tracker_ != nullptr);
    WFD_CHECK(!regs_.empty());
  }

  void on_start() override;
  void on_message(ProcessId from, const sim::Payload& msg) override;
  void on_tick() override;
  /// A register operation of iteration `tag >> 1` completed: the write
  /// (tag bit 0 clear) or the read returning `value`.
  void on_result(std::uint64_t tag, const QuorumList& value) override;

  /// FdSource: the emulated Sigma output.
  [[nodiscard]] fd::FdValue fd_value() const override {
    fd::FdValue v;
    v.sigma = output_;
    return v;
  }

  [[nodiscard]] ProcessSet output() const { return output_; }
  [[nodiscard]] std::uint64_t iterations() const { return k_; }

  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("state", state_);
    enc.field("k", k_);
    sim::encode_field(enc, "ei", ei_);
    enc.field("prev-participants", prev_participants_);
    enc.field("fi", fi_);
    enc.field("output", output_);
    enc.field("read-index", read_index_);
    sim::encode_field(enc, "probe-sets", probe_sets_);
    for (std::size_t i = 0; i < probe_satisfied_.size(); ++i) {
      enc.push("probe-ok", i);
      enc.field("val", static_cast<bool>(probe_satisfied_[i]));
      enc.pop();
    }
    enc.field("probe-round", probe_round_);
    enc.field("ticks-since-sample", ticks_since_sample_);
  }

 private:
  // Probes commute with each other: the handler is a stateless echo
  // whose reply content is fixed by the probe itself.
  struct ProbeMsg final : sim::Payload {
    explicit ProbeMsg(std::uint64_t i) : id(i) {}
    std::uint64_t id;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "probe");
      enc.field("id", id);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "ext.sigma.probe";
    }
    [[nodiscard]] bool commutes_with(const sim::Payload& other)
        const override {
      return sim::payload_cast<ProbeMsg>(other) != nullptr;
    }
  };
  // Audited non-commuting: the *first* replier of each probed set joins
  // F_i, and finish_iteration() runs inside the handler — order decides
  // both the membership of F_i and the iteration boundary.
  struct ProbeAck final : sim::Payload {
    explicit ProbeAck(std::uint64_t i) : id(i) {}
    std::uint64_t id;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "probe-ack");
      enc.field("id", id);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "ext.sigma.probe-ack";
    }
  };

  void start_iteration();
  void read_next_register();
  void start_probes();
  void finish_iteration();

  Options opt_;
  std::vector<std::size_t> regs_;  ///< Positions of Reg_0..Reg_{n-1}.
  ParticipantTracker* tracker_;
  std::vector<sim::FdSampleRecord>* sink_;

  enum class PhaseState { kIdle, kWriting, kReading, kProbing };
  PhaseState state_ = PhaseState::kIdle;

  std::uint64_t k_ = 0;             ///< Current write number.
  QuorumList ei_;                   ///< E_i.
  ProcessSet prev_participants_;    ///< P_i(k-1).
  ProcessSet fi_;                   ///< F_i under construction.
  ProcessSet output_;               ///< Sigma-output_i.

  int read_index_ = 0;
  std::vector<ProcessSet> probe_sets_;   ///< Sets gathered from all reads.
  std::vector<bool> probe_satisfied_;
  std::uint64_t probe_round_ = 0;
  Time ticks_since_sample_ = 0;
};

}  // namespace wfd::extract
