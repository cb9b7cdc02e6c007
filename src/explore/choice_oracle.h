// A failure-detector oracle whose history is decided by a ChoiceSource.
//
// Randomized oracles (fd/omega_oracle.h etc.) draw ONE history from D(F)
// per seed; exploration needs to range over MANY histories, adversarially.
// ChoiceOracle exposes each query's allowed set — the values the detector
// class permits at (p, t) given the failure pattern — as an explicit
// choice point, so the explorer enumerates detector behaviour exactly like
// it enumerates schedules, and a replayed decision log pins the history.
//
// Legality: every finite run produced this way is a prefix of some
// history in D(F). Before `stabilization` the oracle offers the full
// per-query allowed set (Omega may point anywhere, Sigma may output any
// majority, FS may stay green after a crash, Psi may linger at bottom);
// from `stabilization` on it forces the canonical converged values, so
// the eventual-accuracy/completeness clauses are met inside the horizon.
// Bounded-depth safety checking may leave stabilization at kNever: any
// explored prefix still extends to a legal infinite history by letting
// convergence happen after the horizon.
//
// Sigma outputs are drawn from the minimal majorities (plus the
// converged correct-majority), which intersect pairwise by counting;
// exploring Sigma therefore requires a majority-correct pattern.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/process_set.h"
#include "fd/oracle.h"
#include "fd/values.h"
#include "sim/choice.h"
#include "sim/failure_pattern.h"

namespace wfd::explore {

class ChoiceOracle : public fd::Oracle {
 public:
  struct Options {
    bool omega = false;
    bool sigma = false;
    bool fs = false;
    bool psi = false;
    /// true: every query is a fresh choice from the allowed set ("flap"
    /// mode — maximally adversarial). false: one history shape is chosen
    /// at begin_run and held constant ("static" mode — far smaller
    /// choice tree; leaders/quorums must then be correct from the start).
    bool per_query = true;
    /// First time at which outputs are forced to the canonical converged
    /// values. kNever = never force (bounded safety checking only).
    Time stabilization = kNever;
    /// Force Psi onto its (Omega, Sigma) branch at begin_run: every
    /// process is switched from time 0, so no per-query switch-timing
    /// choices remain and the whole history is a converged limit from
    /// the start. Liveness checking sets this (with per_query false):
    /// a graph cycle that keeps Psi at bottom forever would otherwise
    /// be a *legal-prefix* but illegal-limit history and produce
    /// spurious non-termination lassos for QC/NBAC.
    bool psi_converged = false;
    /// Track injected crashes: on_crash mutates the oracle's copy of the
    /// failure pattern and recomputes the canonical converged values, so
    /// failure-dependent menus (FS red, Ψ's FS branch) see crashes the
    /// explorer injects mid-run. In static mode it also re-picks
    /// static_omega_ / static_sigma_ from the survivors when a crash
    /// invalidates them (a recorded kFd choice), so static histories
    /// anticipate explored crash points and stay converged for the
    /// final correct set — the soundness basis of composing --liveness
    /// with --crash=explore. Requires stabilization == kNever when
    /// crashes can arrive after a forced convergence point.
    bool live_pattern = false;
  };

  /// `choices` is borrowed and must outlive the oracle.
  ChoiceOracle(sim::ChoiceSource* choices, Options opt);

  void begin_run(const sim::FailurePattern& f, std::uint64_t seed,
                 Time horizon) override;
  fd::FdValue query(ProcessId p, Time t) override;
  void on_crash(ProcessId p, Time t) override;
  [[nodiscard]] std::string name() const override { return "choice"; }
  void encode_state(sim::StateEncoder& enc, Time now) const override;
  [[nodiscard]] std::unique_ptr<fd::Oracle> clone(
      sim::ChoiceSource& choices) const override {
    auto copy = std::make_unique<ChoiceOracle>(*this);
    copy->choices_ = &choices;
    return copy;
  }

 private:
  [[nodiscard]] std::size_t pick(const std::vector<std::uint64_t>& labels);
  ProcessId omega_value(Time t);
  ProcessSet sigma_value(Time t);
  fd::FsColor fs_value(ProcessSet& red_latch, ProcessId p, Time t);
  fd::PsiValue psi_value(ProcessId p, Time t);

  sim::ChoiceSource* choices_;
  Options opt_;
  int n_ = 0;
  sim::FailurePattern f_{1};

  /// All minimal majorities of {0..n-1} as masks, in increasing order.
  std::vector<std::uint64_t> majority_labels_;

  // Canonical converged values (used from `stabilization` on).
  ProcessId omega_star_ = kNoProcess;  ///< Smallest correct process.
  ProcessSet sigma_star_;              ///< A majority of correct processes.

  // Static-mode history, fixed at begin_run; re-picked at an explored
  // crash that invalidates it (live_pattern).
  ProcessId static_omega_ = kNoProcess;
  ProcessSet static_sigma_;

  ProcessSet fs_red_;      ///< FS component: red is a latch.
  ProcessSet psi_fs_red_;  ///< Psi's FS branch keeps its own latch.

  enum class PsiBranch { kUndecided, kOmegaSigma, kFs };
  PsiBranch psi_branch_ = PsiBranch::kUndecided;
  ProcessSet psi_switched_;
};

}  // namespace wfd::explore
