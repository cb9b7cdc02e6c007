// Extracting Psi from any QC algorithm (Figure 3 — the necessity half of
// Theorem 6).
//
// Given an algorithm A that solves QC using detector D, each process:
//
//   task 1: samples its D module, organises the samples into an
//     ever-growing DAG (gossiped and merged with the other processes'),
//     and simulates runs of A along the DAG's canonical path from the
//     n+1 initial configurations of the simulation forest;
//
//   task 2: waits until it decides in (a run of) every tree. A decision
//     of Q anywhere proves a failure occurred, so the process proposes
//     "red evidence" to a *real* execution of A; otherwise it proposes
//     the witness tuple (I0, I1, S0, S1) of an adjacent decision flip.
//     The real execution makes the branch choice uniform:
//       - red evidence / Q  ->  output red forever   (FS behaviour);
//       - a tuple           ->  extract Omega (critical-index analysis
//         of fresh forest windows, Section 6.3.1) and Sigma (deciding
//         extensions of the tuple's configurations driven by fresh
//         samples, lines 24-32 / Section 6.3.2) forever.
//
// Until the branch resolves, the emulated output is bottom — exactly
// Psi's shape.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "extract/qc_sandbox.h"
#include "extract/sample_dag.h"
#include "extract/sim_forest.h"
#include "qc/qc_api.h"
#include "sim/module.h"
#include "sim/trace.h"

namespace wfd::extract {

/// The value type of the real execution of A in task 2: either "I saw a
/// Q decision" (the paper's proposal of 0) or the decision-flip witness
/// (I0, I1, S0, S1), with the configurations given by tree indices.
struct ExtractProposal {
  bool red_evidence = false;
  int tree0 = 0;  ///< I0 = forest_initial_config(n, tree0).
  int tree1 = 0;
  std::vector<ScriptStep> s0;
  std::vector<ScriptStep> s1;

  friend bool operator==(const ExtractProposal&,
                         const ExtractProposal&) = default;

  void encode_state(sim::StateEncoder& enc) const {
    enc.field("red-evidence", red_evidence);
    enc.field("tree0", tree0);
    enc.field("tree1", tree1);
    sim::encode_field(enc, "s0", s0);
    sim::encode_field(enc, "s1", s1);
  }
};

/// Listens to the real execution of A.
class PsiExtractionModule
    : public sim::Module,
      public sim::FdSource,
      public sim::Listener<qc::QcResult<ExtractProposal>> {
 public:
  /// Creates the real execution of A over ExtractProposal values in the
  /// host process, under the given module name.
  using OuterFactory =
      std::function<qc::QcApi<ExtractProposal>&(sim::ModuleHost& host,
                                                const std::string& name)>;

  struct Options {
    Time sample_period = 64;   ///< Own steps between D samples.
    Time gossip_period = 256;  ///< Own steps between DAG broadcasts.
    Time analyze_period = 512; ///< Own steps between simulation rounds.
    /// Spine suffix length used for forest analyses (keeps deciding
    /// schedules short and dominated by fresh samples).
    std::size_t window = 768;
    /// Stride over the prefixes of S0/S1 when building the Sigma loop's
    /// configuration set C (1 = every prefix, the paper's set).
    std::size_t config_stride = 1;
  };

  PsiExtractionModule(SandboxSpec spec, OuterFactory outer,
                      std::vector<sim::FdSampleRecord>* sink)
      : PsiExtractionModule(std::move(spec), std::move(outer), sink,
                            Options{}) {}

  PsiExtractionModule(SandboxSpec spec, OuterFactory outer,
                      std::vector<sim::FdSampleRecord>* sink, Options opt);

  void on_start() override;
  void on_message(ProcessId from, const sim::Payload& msg) override;
  void on_tick() override;
  /// The real execution of A decided `r` (lines 16-20).
  void on_result(std::uint64_t,
                 const qc::QcResult<ExtractProposal>& r) override;

  /// FdSource: the emulated Psi output (omega/sigma components also
  /// populated once the (Omega, Sigma) branch is live, mirroring
  /// PsiOracle).
  [[nodiscard]] fd::FdValue fd_value() const override;

  enum class Stage { kForest, kAgreeing, kRed, kOmegaSigma };
  [[nodiscard]] Stage stage() const { return stage_; }
  [[nodiscard]] ProcessId omega_output() const { return omega_output_; }
  [[nodiscard]] ProcessSet sigma_output() const { return sigma_output_; }
  [[nodiscard]] std::uint64_t sigma_rounds() const { return sigma_rounds_; }

  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("stage", stage_);
    enc.field("ticks", ticks_);
    enc.push("dag");
    dag_.encode_state(enc);
    enc.pop();
    enc.field("omega-output", omega_output_);
    enc.field("sigma-output", sigma_output_);
    for (std::size_t i = 0; i < sigma_configs_.size(); ++i) {
      enc.push("sigma-config", i);
      enc.field("tree", sigma_configs_[i].tree);
      sim::encode_field(enc, "base", sigma_configs_[i].base);
      enc.pop();
    }
    enc.field("fresh-seq", fresh_seq_);
    enc.field("sigma-rounds", sigma_rounds_);
  }

  // Audited commuting (checked in tests/extract_psi_test.cpp): the
  // handler only folds the snapshot into dag_ via SampleDag::merge,
  // which extends per-process prefixes — merging two snapshots in
  // either order yields the per-process prefix union — and sends
  // nothing, emits no trace events, reads neither clock nor detector.
  // Every *reaction* to the merged DAG (gossip, analyze, stage
  // transitions) is tick-deferred to on_tick, which is what makes both
  // claims sound: consecutive gossip deliveries commute with each
  // other, and a delivery commutes with an adjacent inert lambda step.
  struct GossipMsg final : sim::Payload {
    explicit GossipMsg(std::vector<DagNode> n) : nodes(std::move(n)) {}
    std::vector<DagNode> nodes;
    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("kind", "gossip");
      sim::encode_field(enc, "nodes", nodes);
    }
    [[nodiscard]] std::string_view kind() const override {
      return "ext.psi.gossip";
    }
    [[nodiscard]] bool commutes_with(const sim::Payload& other) const override {
      return sim::payload_cast<GossipMsg>(other) != nullptr;
    }
    [[nodiscard]] bool tick_insensitive() const override { return true; }
  };

 private:
  /// One configuration of the Sigma loop's set C: an initial forest
  /// configuration plus a base schedule prefix.
  struct SigmaConfig {
    int tree = 0;
    std::vector<ScriptStep> base;
  };

  [[nodiscard]] std::vector<ScriptStep> spine_window() const;
  void forest_round();
  void setup_sigma_configs(const ExtractProposal& tuple);
  void omega_round(const std::vector<ScriptStep>& window);
  void sigma_round();
  void record_sample_point();

  SandboxSpec spec_;
  OuterFactory outer_factory_;
  std::vector<sim::FdSampleRecord>* sink_;
  Options opt_;

  SampleDag dag_;
  Stage stage_ = Stage::kForest;
  Time ticks_ = 0;
  std::size_t outer_ = sim::Hook::kNone;  ///< A's position in the host.

  // (Omega, Sigma) branch state.
  ProcessId omega_output_ = kNoProcess;
  ProcessSet sigma_output_;
  std::vector<SigmaConfig> sigma_configs_;
  /// The fresh sample u driving the current Sigma round: only nodes
  /// strictly after it may appear in deciding extensions.
  std::uint64_t fresh_seq_ = 0;
  std::uint64_t sigma_rounds_ = 0;
};

}  // namespace wfd::extract
