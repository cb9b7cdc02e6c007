// Failure-detector oracles.
//
// A failure detector D maps each failure pattern F to a set of histories
// D(F). An Oracle realises one history H in D(F) for the run at hand: it
// is told the run's failure pattern up front (it is an oracle — the
// *processes* still cannot observe F) and answers point queries
// H(p, t). Randomized oracles draw a history from D(F) using the run
// seed, so different seeds exercise different legal histories.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "fd/values.h"
#include "sim/failure_pattern.h"
#include "sim/state_encoder.h"

namespace wfd::sim {
class ChoiceSource;
}  // namespace wfd::sim

namespace wfd::fd {

class Oracle {
 public:
  virtual ~Oracle() = default;

  /// Fix the history for this run. `horizon` hints at the run length so
  /// randomized convergence times land inside the run.
  virtual void begin_run(const sim::FailurePattern& f, std::uint64_t seed,
                         Time horizon) = 0;

  /// H(p, t). Must be called with non-decreasing t per process (the
  /// simulator queries once per step).
  virtual FdValue query(ProcessId p, Time t) = 0;

  /// The failure pattern just changed: p crashed at time t (fault
  /// injection reconstructs the pattern on the fly). Oracles that
  /// received the pattern at begin_run may ignore this — a history legal
  /// for the scripted pattern stays prefix-extendable — but pattern-aware
  /// adversarial oracles update their live copy here so later answers
  /// (FS red, Ψ's failure branch) see the injected crash.
  virtual void on_crash(ProcessId p, Time t) {
    (void)p;
    (void)t;
  }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Fold everything about the realised history that can still influence
  /// answers after time `now` (latched decisions, time left until a
  /// stabilization cutoff — as a delta, never an absolute time). Oracles
  /// that keep the default are opaque and disable fingerprint pruning.
  virtual void encode_state(sim::StateEncoder& enc, Time now) const {
    (void)now;
    enc.opaque("oracle");
  }

  /// A copy for a cloned simulator (sim/clone.h) whose choice points, if
  /// any, ask `choices`; null — the default — when the oracle cannot be
  /// copied.
  [[nodiscard]] virtual std::unique_ptr<Oracle> clone(
      sim::ChoiceSource& choices) const {
    (void)choices;
    return nullptr;
  }
};

/// An oracle that outputs nothing (for algorithms that use no failure
/// detector, e.g. the majority-based ABD register baseline).
class NullOracle : public Oracle {
 public:
  void begin_run(const sim::FailurePattern&, std::uint64_t, Time) override {}
  FdValue query(ProcessId, Time) override { return FdValue{}; }
  [[nodiscard]] std::string name() const override { return "none"; }
  void encode_state(sim::StateEncoder&, Time) const override {}
};

/// Combines two oracles into a tuple detector (e.g. (Omega, Sigma) from an
/// Omega oracle and a Sigma oracle, or (Psi, FS)). Components present in
/// the second oracle's output overwrite absent components of the first.
class TupleOracle : public Oracle {
 public:
  TupleOracle(std::unique_ptr<Oracle> a, std::unique_ptr<Oracle> b);

  void begin_run(const sim::FailurePattern& f, std::uint64_t seed,
                 Time horizon) override;
  FdValue query(ProcessId p, Time t) override;
  void on_crash(ProcessId p, Time t) override {
    a_->on_crash(p, t);
    b_->on_crash(p, t);
  }
  [[nodiscard]] std::string name() const override;
  void encode_state(sim::StateEncoder& enc, Time now) const override {
    enc.push("a");
    a_->encode_state(enc, now);
    enc.pop();
    enc.push("b");
    b_->encode_state(enc, now);
    enc.pop();
  }

 private:
  std::unique_ptr<Oracle> a_;
  std::unique_ptr<Oracle> b_;
};

}  // namespace wfd::fd
