#include "explore/choice_oracle.h"

#include "common/check.h"

namespace wfd::explore {

namespace {

/// Labels for the binary green/red FS choice.
const std::vector<std::uint64_t> kFsLabels = {0, 1};

}  // namespace

ChoiceOracle::ChoiceOracle(sim::ChoiceSource* choices, Options opt)
    : choices_(choices), opt_(opt) {
  WFD_CHECK(choices_ != nullptr);
}

std::size_t ChoiceOracle::pick(const std::vector<std::uint64_t>& labels) {
  WFD_CHECK(!labels.empty());
  if (labels.size() == 1) return 0;  // Forced moves stay out of the log.
  return choices_->choose(sim::ChoiceKind::kFd, labels);
}

void ChoiceOracle::begin_run(const sim::FailurePattern& f, std::uint64_t seed,
                             Time horizon) {
  (void)seed;
  (void)horizon;
  f_ = f;
  n_ = f.n();
  WFD_CHECK(n_ >= 1 && n_ <= kMaxProcesses);
  const ProcessSet correct = f.correct();
  WFD_CHECK_MSG(!correct.empty(), "no correct process in pattern");

  majority_labels_.clear();
  const int m = n_ / 2 + 1;
  if (opt_.sigma || opt_.psi) {
    WFD_CHECK_MSG(correct.size() >= m,
                  "Sigma exploration requires a majority-correct pattern");
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n_); ++mask) {
      if (__builtin_popcountll(mask) != m) continue;
      majority_labels_.push_back(mask);
    }
    ProcessSet star;
    for (ProcessId p : correct.members()) {
      if (star.size() == m) break;
      star.insert(p);
    }
    sigma_star_ = star;
  }
  omega_star_ = correct.min();

  if (!opt_.per_query) {
    // Static histories must be converged from the start: the leader must
    // be correct and the quorum a majority of correct processes.
    if (opt_.omega || opt_.psi) {
      std::vector<std::uint64_t> labels;
      for (ProcessId p : correct.members()) {
        labels.push_back(static_cast<std::uint64_t>(p));
      }
      static_omega_ = static_cast<ProcessId>(labels[pick(labels)]);
    }
    if (opt_.sigma || opt_.psi) {
      std::vector<std::uint64_t> labels;
      for (const std::uint64_t q : majority_labels_) {
        if (ProcessSet::from_raw(q).is_subset_of(correct)) labels.push_back(q);
      }
      WFD_CHECK(!labels.empty());
      static_sigma_ = ProcessSet::from_raw(labels[pick(labels)]);
    }
  }

  fs_red_ = ProcessSet{};
  psi_fs_red_ = ProcessSet{};
  psi_switched_ = ProcessSet{};
  psi_branch_ = PsiBranch::kUndecided;
  if (opt_.psi && opt_.psi_converged) {
    // Converged-from-the-start Psi: adopt the always-legal
    // (Omega, Sigma) branch immediately (the FS branch presumes a
    // failure, which a converged limit cannot).
    psi_branch_ = PsiBranch::kOmegaSigma;
    psi_switched_ = ProcessSet::full(n_);
  }
}

void ChoiceOracle::on_crash(ProcessId p, Time t) {
  if (!opt_.live_pattern) return;
  f_.crash_at(p, t);
  // Recompute the converged values from the surviving correct set; the
  // per-query menus consult f_ directly (FS red / Ψ's FS branch become
  // offerable from this step on).
  const ProcessSet correct = f_.correct();
  WFD_CHECK_MSG(!correct.empty(), "injected crash left no correct process");
  omega_star_ = correct.min();
  if (opt_.sigma || opt_.psi) {
    const int m = n_ / 2 + 1;
    WFD_CHECK_MSG(correct.size() >= m,
                  "injected crash broke the Sigma majority environment");
    ProcessSet star;
    for (ProcessId q : correct.members()) {
      if (star.size() == m) break;
      star.insert(q);
    }
    sigma_star_ = star;
  }
  if (!opt_.per_query) {
    // Static histories anticipate explored crash points: the values
    // picked at begin_run were converged for the pre-crash correct set;
    // when the crash invalidates one, re-pick from the survivors (a
    // recorded kFd choice, so every alternative is explored and the
    // decision is part of the crash step's edge). Crash edges never lie
    // on a cycle (fault budgets decrease monotonically and are
    // fingerprinted), so along any infinite unrolling the statics are
    // the converged legal limit history of the final crash set — which
    // makes --liveness sound when composed with --crash=explore.
    if ((opt_.omega || opt_.psi) && !correct.contains(static_omega_)) {
      std::vector<std::uint64_t> labels;
      for (ProcessId q : correct.members()) {
        labels.push_back(static_cast<std::uint64_t>(q));
      }
      static_omega_ = static_cast<ProcessId>(labels[pick(labels)]);
    }
    if ((opt_.sigma || opt_.psi) && !static_sigma_.is_subset_of(correct)) {
      std::vector<std::uint64_t> labels;
      for (const std::uint64_t q : majority_labels_) {
        if (ProcessSet::from_raw(q).is_subset_of(correct)) labels.push_back(q);
      }
      WFD_CHECK(!labels.empty());
      static_sigma_ = ProcessSet::from_raw(labels[pick(labels)]);
    }
  }
}

ProcessId ChoiceOracle::omega_value(Time t) {
  if (!opt_.per_query) return static_omega_;
  if (t >= opt_.stabilization) return omega_star_;
  // Before stabilization Omega may point at any process, crashed ones
  // included.
  std::vector<std::uint64_t> labels;
  labels.reserve(static_cast<std::size_t>(n_));
  for (ProcessId p = 0; p < n_; ++p) {
    labels.push_back(static_cast<std::uint64_t>(p));
  }
  return static_cast<ProcessId>(labels[pick(labels)]);
}

ProcessSet ChoiceOracle::sigma_value(Time t) {
  if (!opt_.per_query) return static_sigma_;
  if (t >= opt_.stabilization) return sigma_star_;
  return ProcessSet::from_raw(majority_labels_[pick(majority_labels_)]);
}

fd::FsColor ChoiceOracle::fs_value(ProcessSet& red_latch, ProcessId p,
                                   Time t) {
  if (!f_.failure_by(t)) return fd::FsColor::kGreen;
  if (red_latch.contains(p)) return fd::FsColor::kRed;
  if (t < opt_.stabilization && pick(kFsLabels) == 0) {
    return fd::FsColor::kGreen;
  }
  red_latch.insert(p);
  return fd::FsColor::kRed;
}

fd::PsiValue ChoiceOracle::psi_value(ProcessId p, Time t) {
  if (!psi_switched_.contains(p)) {
    if (t >= opt_.stabilization) {
      // Forced convergence: adopt the global branch, defaulting to the
      // always-legal (Omega, Sigma) behaviour.
      if (psi_branch_ == PsiBranch::kUndecided) {
        psi_branch_ = PsiBranch::kOmegaSigma;
      }
      psi_switched_.insert(p);
    } else {
      // 0 = stay bottom, 1 = (Omega, Sigma), 2 = FS. The first switcher
      // fixes the branch for everyone (the paper's Psi switches modes
      // system-wide); FS is offered only if a failure has occurred.
      std::vector<std::uint64_t> labels = {0};
      if (psi_branch_ != PsiBranch::kFs) labels.push_back(1);
      if (psi_branch_ == PsiBranch::kFs ||
          (psi_branch_ == PsiBranch::kUndecided && f_.failure_by(t))) {
        labels.push_back(2);
      }
      const std::uint64_t sel = labels[pick(labels)];
      if (sel == 0) return fd::PsiValue::bottom();
      psi_branch_ = (sel == 1) ? PsiBranch::kOmegaSigma : PsiBranch::kFs;
      psi_switched_.insert(p);
    }
  }
  if (psi_branch_ == PsiBranch::kOmegaSigma) {
    return fd::PsiValue::omega_sigma(omega_value(t), sigma_value(t));
  }
  return fd::PsiValue::failure_signal(fs_value(psi_fs_red_, p, t));
}

void ChoiceOracle::encode_state(sim::StateEncoder& enc, Time now) const {
  // All latches that steer future query answers; the stabilization
  // boundary is folded as a remaining delta so runs that reach the same
  // latch state at different absolute times hash equally only when the
  // same amount of pre-stabilization freedom remains.
  if (opt_.stabilization != kNever && opt_.stabilization > now) {
    enc.field("stabilize-in", opt_.stabilization - now);
  } else {
    enc.field("stabilized", opt_.stabilization != kNever);
  }
  enc.pid_field("static-omega", static_omega_);
  enc.field("static-sigma", static_sigma_);
  for (ProcessId p = 0; p < n_; ++p) {
    enc.push_proc("proc", p);
    enc.field("fs-red", fs_red_.contains(p));
    enc.field("psi-fs-red", psi_fs_red_.contains(p));
    enc.field("psi-switched", psi_switched_.contains(p));
    enc.pop();
  }
  enc.field("psi-branch", psi_branch_);
}

fd::FdValue ChoiceOracle::query(ProcessId p, Time t) {
  fd::FdValue v;
  if (opt_.omega) v.omega = omega_value(t);
  if (opt_.sigma) v.sigma = sigma_value(t);
  if (opt_.fs) v.fs = fs_value(fs_red_, p, t);
  if (opt_.psi) v.psi = psi_value(p, t);
  return v;
}

}  // namespace wfd::explore
